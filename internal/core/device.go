package core

import (
	"fmt"
	"time"

	"github.com/seed5g/seed/internal/android"
	"github.com/seed5g/seed/internal/core5g"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/modem"
	"github.com/seed5g/seed/internal/nas"
	"github.com/seed5g/seed/internal/netemu"
	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
	"github.com/seed5g/seed/internal/sim"
)

// DeviceMode selects the failure-handling stack on the device.
type DeviceMode uint8

const (
	// Legacy is the baseline: stock modem retries + Android ladder only.
	Legacy DeviceMode = iota + 1
	// SEEDU installs the SEED applet and carrier app without root.
	SEEDU
	// SEEDR additionally grants root (AT command paths).
	SEEDR
)

func (m DeviceMode) String() string {
	switch m {
	case Legacy:
		return "Legacy"
	case SEEDU:
		return "SEED-U"
	case SEEDR:
		return "SEED-R"
	default:
		return fmt.Sprintf("DeviceMode(%d)", uint8(m))
	}
}

// ParseDeviceMode maps the spec/CLI spelling of a mode ("legacy", "seed-u",
// "seed-r") to the DeviceMode; ok is false for anything else.
func ParseDeviceMode(s string) (mode DeviceMode, ok bool) {
	switch s {
	case "legacy":
		return Legacy, true
	case "seed-u":
		return SEEDU, true
	case "seed-r":
		return SEEDR, true
	default:
		return 0, false
	}
}

// radioLatency is the one-way latency of a device's radio link to its gNB.
const radioLatency = 8 * time.Millisecond

// DeviceConfig assembles a device.
type DeviceConfig struct {
	IMSI       string
	Profile    sim.Profile
	CarrierKey [16]byte
	Mode       DeviceMode
	Android    android.Config
	Applet     AppletConfig
}

// DefaultDeviceConfig returns a device with standard timers.
func DefaultDeviceConfig(imsi string, profile sim.Profile, carrierKey [16]byte, mode DeviceMode) DeviceConfig {
	return DeviceConfig{
		IMSI:       imsi,
		Profile:    profile,
		CarrierKey: carrierKey,
		Mode:       mode,
		Android:    android.DefaultConfig(),
		Applet:     DefaultAppletConfig(),
	}
}

// Device is a complete emulated handset: SIM, modem, Android monitor,
// carrier app, SEED applet (per mode), app traffic, and the radio link to
// the network.
type Device struct {
	K    *sched.Kernel
	Cfg  DeviceConfig
	Card *sim.Card
	Mdm  *modem.Modem
	Mon  *android.Monitor
	CApp *CarrierApp
	// Applet is nil in Legacy mode.
	Applet *SEEDApplet
	Radio  *netemu.Duplex
	Mux    *dataplane.Mux
	Apps   map[dataplane.AppKind]*dataplane.App

	// OnReject observes every reject cause the modem sees.
	OnReject func(epd byte, code uint8)
	// OnProfileReload fires whenever the modem (re)reads the SIM profile.
	OnProfileReload func()

	probeSeq int
	// pendingProbes maps a probe packet in flight to its monitor attempt.
	pendingProbes map[radio.FlowTag]uint32
	// probeDone reports a probe's outcome: the monitor's ProbeDone,
	// stored once.
	probeDone func(attempt uint32, ok bool)
}

// NewDevice builds a device attached to the given network.
func NewDevice(k *sched.Kernel, cfg DeviceConfig, net *core5g.Network) (*Device, error) {
	card, err := sim.NewCard(sim.DefaultEEPROM, sim.DefaultRAM, cfg.CarrierKey, cfg.Profile)
	if err != nil {
		return nil, err
	}
	d := &Device{
		K: k, Cfg: cfg, Card: card,
		Apps:          make(map[dataplane.AppKind]*dataplane.App),
		Mux:           &dataplane.Mux{},
		pendingProbes: make(map[radio.FlowTag]uint32),
	}
	d.Radio = netemu.NewDuplex(k, "radio-"+cfg.IMSI, radioLatency, nil, nil)
	d.Mdm = modem.New(k, card, d.Radio.A2B.Send, net.Frames, net.NASFrames, net.Messages)
	d.Radio.SetHandlers(net.GNB.HandleUplink, d.Mdm.HandleDownlink)
	net.GNB.AttachUE(cfg.IMSI, d.Radio.B2A.Send)

	d.CApp = NewCarrierApp(k, d.Mdm)

	if cfg.Mode != Legacy {
		d.Applet = NewApplet(k, card, cfg.IMSI, cfg.Profile.K, cfg.Applet, d.CApp)
		if err := card.InstallApplet(d.Applet, sim.InstallMAC(cfg.CarrierKey, AppletAID)); err != nil {
			return nil, err
		}
	}

	d.Mon = android.NewMonitor(k, cfg.Android, android.Hooks{
		Probe:        d.probe,
		Reregister:   d.Mdm.Reattach,
		RestartModem: d.Mdm.Reboot,
		OnDataStall: func(reason string) {
			if cfg.Mode != Legacy {
				d.CApp.OnDataStall(reason)
			}
		},
	})
	d.probeDone = d.Mon.ProbeDone

	d.Mux.OnUnclaimed = d.onUnclaimedPacket
	d.Mdm.SetHooks(modem.Hooks{
		OnSessionUp:    d.onSessionUp,
		OnDownlinkData: d.Mux.Dispatch,
		OnReject: func(epd byte, code uint8) {
			if d.OnReject != nil {
				d.OnReject(epd, code)
			}
		},
		OnProfileReload: func() {
			if d.OnProfileReload != nil {
				d.OnProfileReload()
			}
		},
	})
	d.Mon.SetGate(func() bool { return d.Mdm.State() == modem.StateRegistered })
	return d, nil
}

// Warm fills the device's scratch buffers and free lists ahead of a
// prototype snapshot (see core5g.Network.Warm).
func (d *Device) Warm() {
	d.Card.Warm()
	d.Mdm.Warm()
	d.CApp.warm()
	if d.Applet != nil {
		d.Applet.Warm()
	}
}

// Start powers the modem on, starts the Android monitor, and (for SEED
// modes) performs root detection.
func (d *Device) Start() {
	d.Mdm.PowerOn()
	d.Mon.Start()
	if d.Cfg.Mode == SEEDR {
		d.CApp.DetectRoot(true)
	}
}

// AddApp installs an application traffic emulator on the device.
func (d *Device) AddApp(kind dataplane.AppKind) *dataplane.App {
	app := dataplane.NewApp(d.K, dataplane.Spec(kind), d.SendPacket, d.DNSServer)
	app.AttachMonitor(d.Mon)
	if d.Cfg.Mode != Legacy {
		app.AttachReporter(d.CApp.ReportAppFailure)
	}
	d.Mux.Register(app)
	d.Apps[kind] = app
	return app
}

// SendPacket transmits an uplink packet on the device's data session: it
// writes the session into the caller's packet, and the modem copies that
// into the frame it sends.
func (d *Device) SendPacket(pkt *radio.Packet) bool {
	s, okS := d.dataSession()
	if !okS {
		return false
	}
	pkt.SessionID = s.ID
	return d.Mdm.SendPacket(pkt)
}

// dataSession returns the first active internet-class session (the DIAG
// placeholder and the IMS voice session do not carry app traffic). It sits
// on the per-packet path, so it uses the modem's allocation-free lookup
// with a predicate built once.
func (d *Device) dataSession() (*modem.Session, bool) {
	return d.Mdm.FirstActiveSessionFunc(isDataSession)
}

func isDataSession(s *modem.Session) bool {
	return s.DNN != "DIAG" && s.DNN != "ims"
}

// DNSServer returns the resolver the device currently uses: the carrier
// app's override if set, else the session-configured resolver.
func (d *Device) DNSServer() nas.Addr {
	if o := d.CApp.DNSOverride(); !o.IsZero() {
		return o
	}
	if s, okS := d.dataSession(); okS && len(s.DNS) > 0 {
		return s.DNS[0]
	}
	return core5g.LDNSAddr
}

// Connected reports whether the device has an active data session.
func (d *Device) Connected() bool {
	_, okS := d.dataSession()
	return okS
}

func (d *Device) onSessionUp(s *modem.Session) {
	d.CApp.NotifySessionUp(s)
	if d.Cfg.Mode != Legacy && s.DNN != "DIAG" {
		d.CApp.NotifyValidated()
	}
	if s.DNN != "DIAG" {
		d.Mon.ReportValidated()
	}
}

// probe implements the Android captive-portal check as a real packet to
// the probe server.
func (d *Device) probe(attempt uint32) {
	d.probeSeq++
	tag := radio.NewFlowTag(radio.FlowOwnerProbe, radio.FlowRequest, d.probeSeq)
	pkt := radio.Packet{
		Proto: nas.ProtoTCP, Dst: [4]byte(dataplane.ProbeServerAddr),
		SrcPort: uint16(40000 + d.probeSeq%1000), DstPort: 80,
		Tag: tag, Length: 128,
	}
	if !d.SendPacket(&pkt) {
		d.probeDone(attempt, false)
		return
	}
	d.pendingProbes[tag] = attempt
}

func (d *Device) onUnclaimedPacket(pkt *radio.Packet) {
	if attempt, okP := d.pendingProbes[pkt.Tag]; okP {
		delete(d.pendingProbes, pkt.Tag)
		d.probeDone(attempt, true)
	}
}
