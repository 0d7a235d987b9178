package runner

import "testing"

func TestWorkers(t *testing.T) {
	parallelism = 4 // want
	if Workers() != 4 {
		t.Fatal(Workers())
	}
}
