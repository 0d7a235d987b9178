package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// edgeSeeds are the seeds where math/rand's reduction does something
// other than pass the value through: zero (replaced by 89482311), that
// replacement itself, multiples of M = 2³¹−1 (which reduce to zero),
// M−1, negatives (wrapped up by M), and the int64 extremes. The checked-
// in fuzz corpus under testdata/fuzz/FuzzSourceMatchesMathRand repeats
// them.
var edgeSeeds = []int64{
	0, 1, -1, lcgM - 1, lcgM, 2 * lcgM, 89482311, math.MinInt64, math.MaxInt64,
}

// diffDraws runs past every wrap of the register: tap wraps at 273, feed
// at 334, both indices are back where they started at 607, and by 1214
// every word has been rewritten twice.
const diffDraws = 2500

// diffSources fails t unless got and want agree over n draws, alternating
// the two methods rand.Rand calls on a Source64.
func diffSources(t *testing.T, got, want rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d: Uint64 = %#x, math/rand gives %#x", i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: Int63 = %#x, math/rand gives %#x", i, g, w)
		}
	}
}

func stdSource(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// TestSourceMatchesMathRand is the differential test the whole simulator's
// reproducibility rests on after this source replaced math/rand's: for
// the edge seeds and a few hundred generated ones, the raw stream and
// every *rand.Rand method the repository calls agree with the standard
// library's. A toolchain whose seeded math/rand stream differed (the
// Go 1 promise says none will) fails here, not in a golden trace.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	gen := rand.New(rand.NewSource(20261002))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for i := int64(2); i < 40; i++ {
		seeds = append(seeds, i, -i)
	}
	for _, seed := range seeds {
		diffSources(t, newSource(seed), stdSource(seed), diffDraws)

		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			if g, w := drawAll(got, i), drawAll(want, i); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d, round %d: Rand methods gave %v, math/rand gives %v", seed, i, g, w)
			}
		}
	}
}

// drawAll calls every *rand.Rand method the repository uses, once.
func drawAll(r *rand.Rand, i int) []any {
	n := 1 + i*7919%100000
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	var b [16]byte // the AMF draws RAND with Read
	r.Read(b[:])
	return []any{
		r.Intn(n), r.Int63n(int64(n) << 20), r.Float64(), r.NormFloat64(),
		r.ExpFloat64(), r.Perm(1 + i%9), r.Uint64(), r.Int63(), perm, b,
	}
}

// TestReseedEqualsFresh is the property Reseed rests on: whatever a source
// was seeded with and however far it ran, seeding it again leaves exactly
// a fresh source — no register word computed for the old seed survives
// the mask clear.
func TestReseedEqualsFresh(t *testing.T) {
	prop := func(seed1 int64, draws uint16, seed2 int64) bool {
		s := newSource(seed1)
		for i := 0; i < int(draws)%1500; i++ {
			s.Uint64()
		}
		s.Seed(seed2)
		fresh := stdSource(seed2)
		for i := 0; i < 700; i++ {
			if s.Uint64() != fresh.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzSourceMatchesMathRand drives one source through draws, a reseed at
// an arbitrary point, and more draws, against math/rand doing the same.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(1300), uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		got, want := newSource(seed), stdSource(seed)
		n, at := int(draws)%4096, int(reseedAt)%4096
		if at < n {
			diffSources(t, got, want, at)
			reseed := seed ^ int64(at)*0x9E3779B9
			got.Seed(reseed)
			want.Seed(reseed)
			n -= at
		}
		diffSources(t, got, want, n)
	})
}
