package modem

import (
	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/nas"
)

// This file implements the legacy failure handling the paper measures in
// §3.2: the modem obtains standardized causes from reject messages but
// does not use them for diagnosis. It either aborts or retries blindly on
// timers, resending outdated identities and configurations, which produces
// the repeated failures and long disruptions of Figure 2.

func (m *Modem) onT3510Expiry() {
	if m.state != StateRegistering {
		return
	}
	m.legacyRegistrationFailure(0) // timeout: no cause available
}

func (m *Modem) handleRegistrationReject(rej *nas.RegistrationReject) {
	m.cancelRegTimer()
	m.reportReject(nas.EPD5GMM, uint8(rej.Cause))
	m.legacyRegistrationFailure(uint8(rej.Cause))
}

// legacyRegistrationFailure schedules the blind retry. The only cause
// sensitivity real modems exhibit is the abnormal-case immediate retry for
// transient conditions; everything else waits T3511, and after
// maxRegAttempts the long T3502 backoff kicks in (TS 24.501 §5.5.1.2.7).
func (m *Modem) legacyRegistrationFailure(code uint8) {
	if m.state == StateOff || m.state == StateBooting {
		return
	}
	m.setState(StateDeregistered)
	// Leaving REGISTERED aborts any in-flight service-request resume: the
	// queued uplink would otherwise reference sessions of a dead
	// registration (TS 24.501 §5.6.1.7 aborts the procedure on lower-layer
	// failure).
	m.resuming = false
	m.dropPending()
	m.regAttempts++

	if m.regAttempts > maxRegAttempts {
		// Attempt counter exhausted: wait T3502, then start over. The spec
		// also invalidates the GUTI here; the modems the paper measured keep
		// it until T3502 expires (t3502Fn drops it then), which is what
		// stretches identity-desync failures.
		m.regAttempts = 0
		m.regTimer = m.k.After(t3502, m.t3502Fn)
		return
	}

	wait := t3511
	if info, okc := cause.Lookup(cause.MM(cause.Code(code))); okc && info.Transient {
		wait = transientRetryWait
	}
	m.regTimer = m.k.After(wait, m.attachFn)
}

func (m *Modem) onT3580Expiry(s *Session) {
	if cur, _ := m.Session(s.ID); cur != s || s.Active {
		return
	}
	m.legacySessionFailure(s, 0)
}

func (m *Modem) handleSessionReject(rej *nas.PDUSessionEstablishmentReject) {
	s, okS := m.Session(rej.PDUSessionID)
	if !okS {
		return
	}
	s.timer.Stop()
	m.reportReject(nas.EPD5GSM, uint8(rej.Cause))
	// The reject may carry a suggested DNN (SEED infra extension); the
	// legacy modem ignores it, as §3.2 observes.
	m.legacySessionFailure(s, uint8(rej.Cause))
}

// legacySessionFailure retries session establishment with the *same*
// cached DNN (the outdated-APN loop of §3.2), escalating to a full
// reattach after maxSessAttempts — which still reuses the stale DNN, so
// config-related failures repeat until something reloads the modem.
func (m *Modem) legacySessionFailure(s *Session, code uint8) {
	s.attempts++
	if s.attempts > maxSessAttempts {
		m.dropSession(s.ID)
		// Escalate: reattach, which re-runs registration and then
		// re-establishes the default session from the cached profile.
		m.Reattach()
		return
	}
	wait := T3580
	if info, okc := cause.Lookup(cause.SM(cause.Code(code))); okc && info.Transient {
		wait = transientRetryWait
	}
	s.timer = m.k.AfterArg(wait, m.sessRetry, s)
}
