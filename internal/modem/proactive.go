package modem

import "github.com/seed5g/seed/internal/sim"

// fetchProactive drains the SIM's proactive command queue and executes
// each command (ETSI TS 102 223 terminal behaviour). This is the channel
// through which the SEED applet drives SEED-U's multi-tier resets on an
// unmodified modem.
func (m *Modem) fetchProactive() {
	for {
		cmd, okc := m.card.FetchProactive()
		if !okc {
			return
		}
		m.executeProactive(cmd)
	}
}

func (m *Modem) executeProactive(cmd sim.ProactiveCommand) {
	switch cmd.Type {
	case sim.ProactiveRefresh:
		switch cmd.Mode {
		case sim.RefreshInit, sim.RefreshUICCReset:
			// A1 "SIM profile reload": clear cached contexts (including
			// the possibly-stale GUTI — §4.4.1 "mismatched control-plane
			// states/identities are also refreshed"), re-initialize the
			// SIM application (the slow part on real cards), re-read the
			// profile, then detach and re-register.
			m.guti = ""
			if m.state == StateRegistered || m.state == StateRegistering {
				m.Deregister()
			}
			m.cancelRegTimer()
			m.refreshes = append(m.refreshes, cmd.Files)
			m.k.After(refreshInitTime, m.refreshFn)
		case sim.RefreshFileChange:
			// A2/A3 "config update": re-read just the changed EFs into the
			// modem cache without dropping the registration.
			m.refreshProfile(cmd.Files)
		}

	case sim.ProactiveRunATCommand:
		// The TS 102 223 RUN AT COMMAND path: when supported by the
		// modem, this is what makes SEED-R rootless (§9).
		_, _ = m.Execute(cmd.Text)

	case sim.ProactiveDisplayText, sim.ProactiveProvideLocalInfo, sim.ProactiveSetUpMenu:
		// Informational; no modem state change.
	}
}

// refreshed ends the oldest SIM re-initialization: every one takes
// refreshInitTime, so they end in the order they began.
func (m *Modem) refreshed() {
	files := m.refreshes[0]
	m.refreshes = append(m.refreshes[:0], m.refreshes[1:]...)
	m.refreshProfile(files)
	if m.state == StateDeregistered {
		m.regAttempts = 0
		m.Attach()
	}
}

// refreshProfile re-reads the SIM profile into the modem cache. When files
// is non-empty only those EFs' fields are refreshed; a nil/empty list
// refreshes everything.
func (m *Modem) refreshProfile(files []sim.FileID) {
	p, err := m.card.ReadProfile()
	if err != nil {
		return
	}
	if len(files) == 0 {
		m.profile = p
		m.plmnListFresh = containsPLMN(p.PLMNs, ServingPLMN)
	} else {
		for _, f := range files {
			switch f {
			case sim.EFPLMNSel:
				m.profile.PLMNs = p.PLMNs
				m.plmnListFresh = containsPLMN(p.PLMNs, ServingPLMN)
			case sim.EFDNN:
				m.profile.DNN = p.DNN
			case sim.EFDNS:
				m.profile.DNS = p.DNS
			case sim.EFSNSSAI:
				m.profile.SST = p.SST
				m.profile.SD = p.SD
			case sim.EFRATMode:
				m.profile.RATMode = p.RATMode
			case sim.EFIMSI:
				m.profile.IMSI = p.IMSI
				m.imsi = p.IMSI
			}
		}
	}
	if m.hook.OnProfileReload != nil {
		m.hook.OnProfileReload()
	}
}
