package seed

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/android"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
)

// TimelineEvent is one announced transition (internal/sched lists the kinds)
// as seedsim -timeline prints it: when, which layer, what changed.
type TimelineEvent struct {
	At    time.Duration
	Layer string
	Text  string
}

// OnTransition installs fn as the observer of the testbed's announced
// transitions — the state changes its experiments' stop conditions are
// functions of — or removes it (nil). fn runs inside the announcing call and
// must be a pure observer; it receives values only. The observer belongs to
// the kernel, not to the testbed's snapshot: whoever installs one on a cell
// restored from a prototype removes it before releasing the cell.
func (tb *Testbed) OnTransition(fn func(TimelineEvent)) {
	if fn == nil {
		tb.kern.Watch(nil)
		return
	}
	tb.kern.Watch(func(t sched.Transition, a, b int) {
		layer, text := describeTransition(t, a, b)
		fn(TimelineEvent{At: tb.kern.Now(), Layer: layer, Text: text})
	})
}

// describeTransition renders a transition and its two operands.
func describeTransition(t sched.Transition, a, b int) (layer, text string) {
	scope := func() string {
		if b == 1 {
			return " (network-wide)"
		}
		return ""
	}
	switch t {
	case sched.StallDeclared:
		return "android", fmt.Sprintf("stall declared (%s)", android.StallReason(a))
	case sched.StallCleared:
		return "android", "stall cleared"
	case sched.AppReported:
		return "app", fmt.Sprintf("%s filed failure report %d", dataplane.AppKind(a), b)
	case sched.BlockAdded:
		return "upf", fmt.Sprintf("block added on IP protocol %d%s", a, scope())
	case sched.BlocksCleared:
		return "upf", "block cleared" + scope()
	case sched.ForwardingStalled:
		return "upf", fmt.Sprintf("forwarding stalled on %d session(s)", a)
	case sched.ForwardingInstalled:
		return "upf", fmt.Sprintf("forwarding installed for session %d", a)
	case sched.ForwardingRemoved:
		return "upf", fmt.Sprintf("forwarding removed for session %d", a)
	case sched.LDNSChanged:
		if a == 1 {
			return "upf", "carrier resolver down"
		}
		return "upf", "carrier resolver up"
	case sched.ModemState:
		return "modem", "state " + modem.State(a).String()
	case sched.SessionAdded:
		return "modem", fmt.Sprintf("session %d requested", a)
	case sched.SessionRemoved:
		if b == 1 {
			return "modem", fmt.Sprintf("session %d down", a)
		}
		return "modem", fmt.Sprintf("session %d abandoned", a)
	case sched.SessionUp:
		return "modem", fmt.Sprintf("session %d up", a)
	case sched.SessionDNS:
		return "modem", fmt.Sprintf("session %d resolver %s", a, nas.AddrOfWord(b))
	case sched.ResolverOverride:
		return "carrier-app", "resolver " + nas.AddrOfWord(a).String()
	default:
		return "?", fmt.Sprintf("transition %d (%d, %d)", t, a, b)
	}
}
