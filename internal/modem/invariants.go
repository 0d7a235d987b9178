package modem

import (
	"errors"
	"fmt"
)

// CheckInvariants verifies the structural consistency of the modem's 5GMM
// and 5GSM state against TS 24.501. It is the FSM-legality probe of the
// adversarial fuzzing harness: after malformed or out-of-state traffic has
// been injected and the simulation quiesced, the modem must still be in a
// state a conformant baseband could legally occupy. Returns nil when every
// invariant holds, else a descriptive error naming the first violation.
func (m *Modem) CheckInvariants() error {
	if m.state > StateRegistered {
		return fmt.Errorf("modem: illegal 5GMM state %d", uint8(m.state))
	}
	for i, s := range m.sessions {
		if s == nil {
			return fmt.Errorf("modem: nil session at index %d", i)
		}
		if i > 0 && m.sessions[i-1].ID >= s.ID {
			return fmt.Errorf("modem: session list out of ID order at index %d (ID %d after %d)", i, s.ID, m.sessions[i-1].ID)
		}
	}
	if m.state == StateOff || m.state == StateBooting {
		// Power-off drops all volatile context; nothing may leak across
		// the cycle.
		switch {
		case len(m.sessions) != 0:
			return fmt.Errorf("modem: %d sessions survive power-off", len(m.sessions))
		case len(m.pendingPkts) != 0:
			return fmt.Errorf("modem: %d queued packets survive power-off", len(m.pendingPkts))
		case m.sec != nil:
			return errors.New("modem: NAS security context survives power-off")
		case m.guti != "":
			return errors.New("modem: GUTI survives power-off")
		case m.rrcConnected:
			return errors.New("modem: RRC connected while powered off")
		case m.resuming:
			return errors.New("modem: service-request resume pending while powered off")
		}
	}
	// A service-request resume is only ever in flight from REGISTERED
	// (TS 24.501 §5.6.1); any transition away must abort it.
	if m.resuming && m.state != StateRegistered {
		return fmt.Errorf("modem: service-request resume pending in state %v", m.state)
	}
	return nil
}
