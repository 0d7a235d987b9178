// Package runner is the package-state fixture: package-level switches, one
// flipped through an atomic setter, one that only a test flips.
package runner

import "sync/atomic"

// parallelism is read by Workers and written, outside package
// initialization, by the test beside this file.
var parallelism = 1

// cloneBoot is the kind of switch SetParallelism and SetCloneFromPrototype
// flipped: an atomic, written through its Store method.
var cloneBoot atomic.Bool

// Workers returns the worker count the switch selects.
func Workers() int { return parallelism }

// SetCloneBoot flips the switch for every later caller.
func SetCloneBoot(on bool) {
	cloneBoot.Store(on) // want
}
