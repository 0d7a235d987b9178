package sched

import "math/rand"

// This file is the simulator's one seeded random source. It produces,
// value for value, the stream of rand.NewSource(seed) — the additive
// lagged-Fibonacci generator math/rand has shipped since Go 1 and, under
// the Go 1 compatibility promise, cannot change for an explicitly seeded
// source — but seeds in O(1) instead of O(607).
//
// math/rand's Seed fills a 607-word register eagerly: it walks the
// Lehmer sequence x ← 48271·x mod 2³¹−1 for 20 + 3·607 steps and builds
// word i from steps 21+3i, 22+3i and 23+3i, XORed with a fixed additive
// constant ("cooked" value) per slot. A simulated cell draws a few dozen
// numbers, so nearly all of that work is for words nobody reads. Because
// step n of a Lehmer sequence is seed·Aⁿ mod M, any word can be computed
// on its own from a table of powers: Seed here stores the reduced seed
// and clears a 607-bit "filled" mask, and a draw fills the (at most two)
// slots it touches the first time it touches them.
//
// TestSourceMatchesMathRand and FuzzSourceMatchesMathRand hold this source
// to math/rand's, draw for draw; they are the guard on a toolchain bump.

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lcgA  = 48271
	lcgM  = 1<<31 - 1
	lcgA3 = lcgA * lcgA % lcgM * lcgA % lcgM // one register word is three steps
)

var (
	// lcgPow[i] = A^(21+3i) mod M: the Lehmer step that starts word i.
	lcgPow = lcgPowers()
	// cooked holds math/rand's per-slot additive constants (its unexported
	// rngCooked). They are recovered from the standard library's own output
	// once per process rather than vendored: that is ~20 lines instead of a
	// 607-entry table to keep in step with upstream, and a source that
	// disagreed with the linked math/rand would fail the differential tests
	// either way.
	cooked = recoverCooked()
)

func lcgPowers() (pow [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lcgA % lcgM
	}
	for i := range pow {
		pow[i] = x
		x = x * lcgA3 % lcgM
	}
	return pow
}

// lcgWord is the seed-dependent part of register word i: three
// consecutive Lehmer steps packed at bit offsets 40, 20 and 0.
func lcgWord(seed uint64, i int) int64 {
	x1 := seed * lcgPow[i] % lcgM
	x2 := x1 * lcgA % lcgM
	x3 := x2 * lcgA % lcgM
	return int64(x1<<40 ^ x2<<20 ^ x3)
}

// recoverCooked solves for the initial register v of rand.NewSource(1)
// from its first 607 outputs o₁…o₆₀₇, then strips the seed-1 Lehmer part.
// Draw k reads slots feed = 334−k (mod 607) and tap = 607−k, and writes
// their sum to feed; a tap slot below 334 was a feed slot 273 draws
// earlier, so from draw 274 on the tap operand is the known output
// o_{k−273} and the feed operand — still untouched — falls out by
// subtraction. The first 273 draws then give the rest.
func recoverCooked() (c [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		feed := (2*rngLen - rngTap - k) % rngLen
		v[feed] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = o[k] - v[rngLen-k]
	}
	for i := range c {
		c[i] = v[i] ^ lcgWord(1, i)
	}
	return c
}

// source is a rand.Source64 stream-identical to rand.NewSource(seed) with
// an O(1) Seed. The zero value is not seeded; call Seed first.
type source struct {
	tap, feed int
	seed      uint64                     // reduced into [1, M)
	filled    [(rngLen + 63) / 64]uint64 // bit i set: vec[i] is current
	vec       [rngLen]int64
}

// Seed resets the stream to that of rand.NewSource(seed). It touches no
// register word: the mask clear marks all 607 as not yet computed.
func (s *source) Seed(seed int64) {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap = 0
	s.feed = rngLen - rngTap
	s.seed = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// word returns register slot i, computing it on first touch since Seed.
func (s *source) word(i int) int64 {
	if s.filled[i>>6]>>(i&63)&1 == 0 {
		s.fill(i)
	}
	return s.vec[i]
}

// fill is kept out of line so that word, and with it the steady-state
// draw, inlines into Uint64.
//
//go:noinline
func (s *source) fill(i int) {
	s.filled[i>>6] |= 1 << (i & 63)
	s.vec[i] = lcgWord(s.seed, i) ^ cooked[i]
}

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// SnapSkip implements snap.Skipper. A kernel's source lives inside the
// Kernel and is captured by KernelSnapshot; the generic walker reaches it
// again through every *rand.Rand an actor holds and must not record it a
// second time. The walker thereby skips a NewRand stream too: none is
// held by a snapshotted actor (derived streams are built per cell, after
// the restore), and one that were would need its own Snapshotter.
func (*source) SnapSkip() {}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// NewRand returns a generator whose stream is that of
// rand.New(rand.NewSource(seed)). It is the one constructor for seeded
// streams that do not belong to a kernel (workload compilation, policy
// search, adversarial cases, trace generation, mobility walks); seeds come
// from DeriveSeed/DeriveSeedN.
func NewRand(seed int64) *rand.Rand { return rand.New(newSource(seed)) }
