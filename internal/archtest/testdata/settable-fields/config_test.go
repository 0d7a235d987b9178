package fleet

import "testing"

// A test's writes do not make a setting.
func TestPoll(t *testing.T) {
	c := DefaultPollConfig("a")
	c.Depth, c.Window, c.Verbose = 1, 2, true
	run(&c)
}
