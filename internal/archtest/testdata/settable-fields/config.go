// Package fleet is the settable-fields fixture: a configuration whose
// settings a program sets, by literal, assignment and flag, beside three
// that only their defaults and the tests write; and a poller whose hooks a
// program sets, by literal and through an installer it calls, beside three
// that only a test, an empty func or an installer only a test calls sets;
// and forwarding hooks, set by closures that only call other hooks, which
// count when a hook they reach is set.
package fleet

import (
	"flag"
	"time"
)

// PollConfig parameterizes a poller.
type PollConfig struct {
	Addr     string        // set by literal
	Interval time.Duration // set by flag
	Retries  int           // set by assignment through a pointer
	Depth    int           // want
	Window   time.Duration // want
	Verbose  bool          // want
}

var defaultWindow = time.Minute

func (c *PollConfig) withDefaults() {
	if c.Depth <= 0 {
		c.Depth = 256
	}
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
}

// DefaultPollConfig is the stock configuration.
func DefaultPollConfig(addr string) PollConfig {
	return PollConfig{Addr: addr, Verbose: false}
}

// Handler is a named func type; a field of it is a hook like any other.
type Handler func(n int)

// Poller polls with a configuration and reports through its hooks.
type Poller struct {
	cfg      PollConfig
	OnPoll   func()           // set by literal
	OnResult Handler          // set by an installer a program calls
	OnError  func(err error)  // want
	OnIdle   func()           // want
	OnClose  func(clean bool) // want
	Relay    func()           // want
	Forward  func(n int)      // set by a closure that calls a set hook
	Chain    func(n int)      // set by a closure that calls Forward
}

// OnResults installs fn as the result hook.
func (p *Poller) OnResults(fn Handler) { p.OnResult = fn }

// OnClosed installs fn as the close hook.
func (p *Poller) OnClosed(fn func(clean bool)) { p.OnClose = fn }

func run(c *PollConfig) {
	flag.DurationVar(&c.Interval, "interval", time.Second, "poll interval")
	c.Retries = 3
	c.withDefaults()
	p := &Poller{
		cfg:    *c,
		OnPoll: func() { c.Retries-- },
		OnIdle: func() {},
	}
	p.OnResults(func(n int) { c.Retries += n })
	p.Chain = func(n int) { p.Forward(n) }
	p.Relay = func() {
		if p.OnIdle != nil {
			p.OnIdle()
		}
	}
	p.Forward = func(n int) {
		if p.OnResult != nil {
			p.OnResult(n)
		}
	}
}
