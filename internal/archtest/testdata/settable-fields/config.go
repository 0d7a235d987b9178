// Package fleet is the settable-fields fixture: a configuration whose
// settings a program sets, by literal, assignment and flag, beside three
// that only their defaults and the tests write.
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

func run(c *PollConfig) {
	flag.DurationVar(&c.Interval, "interval", time.Second, "poll interval")
	c.Retries = 3
	c.withDefaults()
}
