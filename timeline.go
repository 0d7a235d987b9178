package seed

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/android"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// TimelineEvent is one thing a run emitted, as seedsim prints it:
// when, which layer, what happened.
type TimelineEvent struct {
	At    time.Duration
	Layer string
	Text  string
}

// Timeline is an observer (Testbed.Observe) that takes everything a run
// emits — the announced transitions its stop conditions are functions of
// (internal/sched lists the kinds), the NAS messages the modem sends and
// receives, the APDUs it relays to the SIM, and the decisions of the applet
// and the infrastructure plugin — and hands each to Emit as one event, in the
// order they happened. Now is the observed testbed's clock.
type Timeline struct {
	Now  func() time.Duration
	Emit func(TimelineEvent)
}

// Transition implements sched.TransitionObserver.
func (tl Timeline) Transition(t sched.Transition, a, b int) {
	layer, text := describeTransition(t, a, b)
	tl.Emit(TimelineEvent{At: tl.Now(), Layer: layer, Text: text})
}

// NAS implements modem.NASObserver.
func (tl Timeline) NAS(_ string, sent bool, msg nas.Message) {
	dir := "<- "
	if sent {
		dir = "-> "
	}
	tl.Emit(TimelineEvent{At: tl.Now(), Layer: "nas", Text: dir + nas.Name(msg.EPD(), msg.MessageType())})
}

// APDU implements modem.APDUObserver.
func (tl Timeline) APDU(_ string, cmd sim.Command, resp sim.Response) {
	tl.Emit(TimelineEvent{At: tl.Now(), Layer: "sim", Text: fmt.Sprintf("%v -> %04X", cmd, resp.SW)})
}

// Decision implements core.DecisionTracer: the applet's stages and the
// plugin's Figure 8 branches, with the action a stage committed to.
func (tl Timeline) Decision(ev core.DecisionEvent) {
	layer := "applet"
	if ev.Stage >= core.StageInfraCongestion {
		layer = "plugin"
	}
	text := ev.Stage.String()
	if ev.Action != 0 {
		text += " " + ev.Action.String()
	}
	tl.Emit(TimelineEvent{At: ev.At, Layer: layer, Text: text})
}

// Observe installs o as the observer of the testbed's run, or removes it
// (nil). o implements what it wants to be handed: sched.TransitionObserver,
// modem.NASObserver, modem.APDUObserver, core.DecisionTracer (Timeline
// implements all four); a value implementing none of them is a bug and
// panics. An observer runs inside the emitting call and must be a pure
// observer; what it is lent it reads before returning. It belongs to the
// kernel, not to the testbed's snapshot, and to one cell: a prototype removes
// it when the cell is released.
func (tb *Testbed) Observe(o any) {
	switch o.(type) {
	case nil, sched.TransitionObserver, modem.NASObserver, modem.APDUObserver, core.DecisionTracer:
		tb.kern.Observe(o)
	default:
		panic(fmt.Sprintf("seed: Observe(%T): not an observer of transitions, NAS, APDUs or decisions", o))
	}
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
	case sched.DataReset:
		if a == 1 {
			return "carrier-app", fmt.Sprintf("fast data reset %d", b)
		}
		return "carrier-app", fmt.Sprintf("data reset %d", b)
	default:
		return "?", fmt.Sprintf("transition %d (%d, %d)", t, a, b)
	}
}
