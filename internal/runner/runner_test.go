package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d, want %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d, want 5", got)
	}
}

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(New(workers), 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(New(4), 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map over 0 cells returned %v", got)
	}
}

func TestMapRunsEachCellOnce(t *testing.T) {
	var calls atomic.Int64
	counts := Map(New(8), 500, func(i int) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != 500 {
		t.Fatalf("fn called %d times, want 500", calls.Load())
	}
	if len(counts) != 500 {
		t.Fatalf("got %d results, want 500", len(counts))
	}
}
