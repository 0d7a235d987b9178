// Package fleet is the seeded-streams fixture: a second random source,
// reached through an aliased import and a function value.
package fleet

import mr "math/rand"

// newJitter seeds a stream of its own instead of drawing from the kernel.
func newJitter(seed int64) *mr.Rand {
	source := mr.NewSource // want
	return mr.New(source(seed))
}
