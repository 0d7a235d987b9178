package fleet

import "testing"

// A test's writes do not make a setting, and a test's hooks and installer
// calls do not make a hook.
func TestPoll(t *testing.T) {
	c := DefaultPollConfig("a")
	c.Depth, c.Window, c.Verbose = 1, 2, true
	run(&c)
	p := &Poller{OnError: func(err error) { t.Error(err) }}
	p.OnClosed(func(bool) {})
}
