package sched

// Transition is the kind of a state change a layer announces through its
// kernel. The kinds below are the state the experiments' stop conditions are
// functions of (is a stall declared, did an app report, is the UE blocked or
// its forwarding stalled, does the modem hold an active session, which
// resolver does the device use): the layer that owns such a piece of state
// calls Announce at the point where it flips, so a wait re-reads its
// condition only after an event that announced something instead of after
// every event, and an observer (seedsim's timeline) sees why a run ended when
// it did.
//
// A transition carries its kind and two integer operands whose meaning the
// kind fixes: values only, never a pooled pointer or a slice, so an observer
// has nothing it could retain past the call.
type Transition uint8

const (
	// StallDeclared: android.Monitor declared a data stall. a: the rule that
	// fired (android.StallReason names it), b: stalls declared so far.
	StallDeclared Transition = iota + 1
	// StallCleared: connectivity validated again after a declared stall.
	StallCleared
	// AppReported: a dataplane.App filed a SEED failure report. a: the app's
	// kind, b: its reports so far.
	AppReported

	// BlockAdded: the UPF installed a policy block. a: IP protocol, b: 1 for
	// a network-wide block.
	BlockAdded
	// BlocksCleared: the UPF dropped a UE's policy blocks (b: 1 for the
	// network-wide ones).
	BlocksCleared
	// ForwardingStalled: the UPF corrupted the forwarding state of a UE's
	// sessions. a: how many.
	ForwardingStalled
	// ForwardingInstalled, ForwardingRemoved: the UPF (re)bound or dropped a
	// session's forwarding state. a: the session ID.
	ForwardingInstalled
	ForwardingRemoved
	// LDNSChanged: the carrier resolver went down (a: 1) or came back (a: 0).
	LDNSChanged

	// ModemState: the modem's 5GMM state changed. a: the new modem.State.
	ModemState
	// SessionAdded, SessionRemoved: the modem's session list gained or lost
	// an entry. a: the session ID; for SessionRemoved b: 1 if it was active.
	SessionAdded
	SessionRemoved
	// SessionUp: a PDU session was accepted and is active. a: the session ID.
	SessionUp
	// SessionDNS: a modification rewrote an active session's resolvers.
	// a: the session ID, b: the first resolver (nas.Addr.Word).
	SessionDNS

	// ResolverOverride: the carrier app pointed the device at a resolver of
	// its own. a: the resolver (nas.Addr.Word).
	ResolverOverride
	// DataReset: the carrier app began cycling the default data session.
	// a: 1 for the fast reset that holds the bearer with a DIAG session, 0 for
	// the make-before-break one, b: resets of that kind so far.
	DataReset
)

// TransitionObserver is what Announce looks for on the kernel's observer.
// Transition runs inside the announcing call, mid-event.
type TransitionObserver interface {
	Transition(t Transition, a, b int)
}

// Observe installs o as the kernel's one observer of the run; nil removes it.
// The kernel holds the value and every layer looks on it for the interface it
// emits through (TransitionObserver here, modem.NASObserver,
// modem.APDUObserver, core.DecisionTracer): o implements the ones it wants.
// An observer records what it is handed, during the call, and touches nothing
// of the simulation. It is not snapshot state — Restore leaves it alone — and
// belongs to the cell that installed it (seed.Proto removes it on release).
func (k *Kernel) Observe(o any) {
	k.observer = o
	k.transitions, _ = o.(TransitionObserver)
}

// Observer returns what Observe installed, nil when nothing observes.
func (k *Kernel) Observer() any { return k.observer }

// Announce reports a transition: it is counted (see Announced) and handed to
// the observer, if it takes transitions. It allocates nothing.
func (k *Kernel) Announce(t Transition, a, b int) {
	k.announced++
	if k.transitions != nil {
		k.transitions.Transition(t, a, b)
	}
}

// Announced returns how many transitions have been announced on the kernel.
// A run loop compares it across a Step to learn whether the step announced
// anything. Like the observer it is not snapshot state: only differences
// between two readings on one run mean something.
func (k *Kernel) Announced() uint64 { return k.announced }
