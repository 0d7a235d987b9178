package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/seed5g/seed/internal/crypto5g"
)

// Default hardware budgets of the paper's Javacard eSIM (§7 setup).
const (
	DefaultEEPROM = 180 * 1024
	DefaultRAM    = 8 * 1024
)

// Applet is a card application installed on the SIM. Applets declare their
// resource footprint so the card can enforce the Javacard-style quotas.
type Applet interface {
	// AID is the application identifier.
	AID() string
	// RAMBytes is the applet's working-memory footprint.
	RAMBytes() int
	// CodeBytes is the applet's EEPROM footprint for installed code.
	CodeBytes() int
	// HandleEnvelope processes an ENVELOPE APDU addressed to this applet
	// (the carrier app's channel into the SIM) and returns response data.
	HandleEnvelope(data []byte) ([]byte, error)
}

// DiagnosisHandler is implemented by applets that consume SEED's downlink
// diagnosis channel: the card routes the AUTN payload of a DFlag-marked
// Authentication Request here instead of running AKA. The returned bytes
// are sent back as the AUTS of a synthetic "Synch failure", which is the
// protocol-compliant ACK (Fig 7a).
type DiagnosisHandler interface {
	HandleAuthDiagnosis(autn [16]byte) (auts []byte)
	// AuthSucceeded is called after every real AKA run that succeeded
	// (diagnosis deliveries excluded): registration is progressing again,
	// the recovery signal behind the 2 s transient-failure timer and the
	// online-learning verdicts.
	AuthSucceeded()
}

// AuthKind classifies an AUTHENTICATE outcome.
type AuthKind uint8

const (
	// AuthOK means AKA succeeded; RES/CK/IK are valid.
	AuthOK AuthKind = iota + 1
	// AuthSyncFailure means the SQN was out of range (or a diagnosis was
	// ACKed); AUTS is valid.
	AuthSyncFailure
	// AuthMACFailure means AUTN failed verification.
	AuthMACFailure
)

// AuthResult is the outcome of Card.Authenticate.
type AuthResult struct {
	Kind AuthKind
	RES  [8]byte
	CK   [16]byte
	IK   [16]byte
	AUTS [14]byte
}

// Stats counts card operations; the device energy model is driven by these.
type Stats struct {
	APDUs      int
	AuthOps    int
	DiagMsgs   int
	Envelopes  int
	Proactives int
	FileReads  int
	FileWrites int
}

// Profile is the subscriber profile provisioned on the card.
type Profile struct {
	IMSI    string
	K       [16]byte
	OP      [16]byte
	PLMNs   []uint32
	DNN     string
	DNS     [][4]byte
	SST     uint8
	SD      [3]byte
	RATMode uint8
}

// Card is the emulated SIM/eSIM.
type Card struct {
	fs         *FileSystem
	ramQuota   int
	ramUsed    int
	carrierKey [16]byte

	mil *crypto5g.Milenage
	sqn uint64 // highest SQN accepted from the network

	applets  []Applet
	selected Applet
	diag     DiagnosisHandler

	// lastIMSI, lastDNN, lastPLMNs and lastDNS are what ReadProfile
	// returned last (StoreProfile's values before the first read): a modem
	// re-reads the profile at every boot and refresh, nearly always to find
	// what it already holds. The lists are shared with whoever read them,
	// which is safe because no holder writes a profile's list in place.
	lastIMSI, lastDNN string
	lastPLMNs         []uint32
	lastDNS           [][4]byte

	selectedFile FileID
	proactive    []ProactiveCommand
	onProactive  func()

	stats Stats
}

// NewCard creates a card with the given EEPROM and RAM quotas and installs
// the subscriber profile. carrierKey gates applet installation (OTA).
func NewCard(eeprom, ram int, carrierKey [16]byte, p Profile) (*Card, error) {
	mil, err := crypto5g.NewMilenage(p.K[:], p.OP[:])
	if err != nil {
		return nil, err
	}
	c := &Card{
		fs:         NewFileSystem(eeprom),
		ramQuota:   ram,
		carrierKey: carrierKey,
		mil:        mil,
	}
	if err := c.StoreProfile(p); err != nil {
		return nil, err
	}
	c.lastIMSI, c.lastDNN = p.IMSI, p.DNN
	c.lastPLMNs, c.lastDNS = slices.Clone(p.PLMNs), slices.Clone(p.DNS)
	return c, nil
}

// FS exposes the card file system (applets and tests use it directly; the
// modem goes through APDUs).
func (c *Card) FS() *FileSystem { return c.fs }

// Stats returns a copy of the operation counters.
func (c *Card) Stats() Stats { return c.stats }

// RAMUsed returns the RAM consumed by installed applets.
func (c *Card) RAMUsed() int { return c.ramUsed }

// Milenage exposes the card's AKA functions (the SEED applet derives its
// envelope keys from them, like the prototype derives from the in-SIM key).
func (c *Card) Milenage() *crypto5g.Milenage { return c.mil }

// StoreProfile writes the profile fields to their EFs.
func (c *Card) StoreProfile(p Profile) error {
	if err := c.fs.Write(EFIMSI, []byte(p.IMSI)); err != nil {
		return err
	}
	plmn := make([]byte, 4*len(p.PLMNs))
	for i, v := range p.PLMNs {
		binary.BigEndian.PutUint32(plmn[i*4:], v)
	}
	if err := c.fs.Write(EFPLMNSel, plmn); err != nil {
		return err
	}
	if err := c.fs.Write(EFDNN, []byte(p.DNN)); err != nil {
		return err
	}
	dns := make([]byte, 4*len(p.DNS))
	for i, v := range p.DNS {
		copy(dns[i*4:], v[:])
	}
	if err := c.fs.Write(EFDNS, dns); err != nil {
		return err
	}
	if err := c.fs.Write(EFSNSSAI, []byte{p.SST, p.SD[0], p.SD[1], p.SD[2]}); err != nil {
		return err
	}
	return c.fs.Write(EFRATMode, []byte{p.RATMode})
}

// held returns b as a string: s itself when that is what b spells.
func held(s string, b []byte) string {
	if s == string(b) {
		return s
	}
	return string(b)
}

// heldPLMNs reports whether list is what the EF bytes b decode to.
func heldPLMNs(list []uint32, b []byte) bool {
	if len(list) == 0 || len(list) != len(b)/4 {
		return false
	}
	for i, v := range list {
		if v != binary.BigEndian.Uint32(b[4*i:]) {
			return false
		}
	}
	return true
}

// heldDNS is heldPLMNs for the resolver list.
func heldDNS(list [][4]byte, b []byte) bool {
	if len(list) == 0 || len(list) != len(b)/4 {
		return false
	}
	for i, a := range list {
		if a != [4]byte(b[4*i:]) {
			return false
		}
	}
	return true
}

// ReadProfile reconstructs the profile from the EFs (keys are not readable
// off a real card; the returned profile has zero K/OP).
func (c *Card) ReadProfile() (Profile, error) {
	var p Profile
	imsi, err := c.fs.view(EFIMSI)
	if err != nil {
		return p, err
	}
	p.IMSI = held(c.lastIMSI, imsi)
	c.lastIMSI = p.IMSI
	plmn, err := c.fs.view(EFPLMNSel)
	if err != nil {
		return p, err
	}
	if !heldPLMNs(c.lastPLMNs, plmn) {
		c.lastPLMNs = nil
		for i := 0; i+4 <= len(plmn); i += 4 {
			c.lastPLMNs = append(c.lastPLMNs, binary.BigEndian.Uint32(plmn[i:]))
		}
	}
	p.PLMNs = c.lastPLMNs
	dnn, err := c.fs.view(EFDNN)
	if err != nil {
		return p, err
	}
	p.DNN = held(c.lastDNN, dnn)
	c.lastDNN = p.DNN
	dns, err := c.fs.view(EFDNS)
	if err != nil {
		return p, err
	}
	if !heldDNS(c.lastDNS, dns) {
		c.lastDNS = nil
		for i := 0; i+4 <= len(dns); i += 4 {
			c.lastDNS = append(c.lastDNS, [4]byte(dns[i:]))
		}
	}
	p.DNS = c.lastDNS
	sn, err := c.fs.view(EFSNSSAI)
	if err != nil {
		return p, err
	}
	if len(sn) == 4 {
		p.SST = sn[0]
		copy(p.SD[:], sn[1:4])
	}
	rat, err := c.fs.view(EFRATMode)
	if err != nil {
		return p, err
	}
	if len(rat) == 1 {
		p.RATMode = rat[0]
	}
	return p, nil
}

// ErrInstallDenied is returned when an applet install fails authentication
// or resource checks.
var ErrInstallDenied = errors.New("sim: applet install denied")

// InstallMAC computes the install authorization MAC for an applet AID
// under the carrier key. Only the operator holds this key.
func InstallMAC(carrierKey [16]byte, aid string) [16]byte {
	tag, err := crypto5g.CMAC(carrierKey[:], []byte(aid))
	if err != nil {
		panic(err) // 16-byte key is guaranteed by the type
	}
	return tag
}

// InstallApplet installs a over-the-air–delivered applet. mac must be
// InstallMAC(carrierKey, a.AID()); anyone without the carrier key cannot
// produce it, which is the security property §7.3 leans on.
func (c *Card) InstallApplet(a Applet, mac [16]byte) error {
	want := InstallMAC(c.carrierKey, a.AID())
	if !crypto5g.ConstantTimeEqual(want[:], mac[:]) {
		return fmt.Errorf("%w: bad carrier MAC for %q", ErrInstallDenied, a.AID())
	}
	for _, ex := range c.applets {
		if ex.AID() == a.AID() {
			return fmt.Errorf("%w: %q already installed", ErrInstallDenied, a.AID())
		}
	}
	if c.ramUsed+a.RAMBytes() > c.ramQuota {
		return fmt.Errorf("%w: RAM quota exceeded (%d + %d > %d)", ErrInstallDenied, c.ramUsed, a.RAMBytes(), c.ramQuota)
	}
	if a.CodeBytes() > c.fs.Free() {
		return fmt.Errorf("%w: EEPROM quota exceeded (%d code > %d free)", ErrInstallDenied, a.CodeBytes(), c.fs.Free())
	}
	// Reserve EEPROM for the applet code by charging the quota.
	c.fs.used += a.CodeBytes()
	c.ramUsed += a.RAMBytes()
	c.applets = append(c.applets, a)
	if d, okd := a.(DiagnosisHandler); okd {
		c.diag = d
	}
	return nil
}

// UninstallApplet removes an applet and reclaims its resources.
func (c *Card) UninstallApplet(aid string) error {
	for i, a := range c.applets {
		if a.AID() == aid {
			c.applets = append(c.applets[:i], c.applets[i+1:]...)
			c.ramUsed -= a.RAMBytes()
			c.fs.used -= a.CodeBytes()
			if d, okd := a.(DiagnosisHandler); okd && c.diag == d {
				c.diag = nil
			}
			if c.selected == a {
				c.selected = nil
			}
			return nil
		}
	}
	return fmt.Errorf("sim: applet %q not installed", aid)
}

// Applet returns the installed applet with the given AID, if any.
func (c *Card) Applet(aid string) (Applet, bool) {
	for _, a := range c.applets {
		if a.AID() == aid {
			return a, true
		}
	}
	return nil, false
}

// Authenticate runs 5G-AKA for a (RAND, AUTN) challenge — or, when RAND is
// the reserved DFlag, routes the AUTN payload to the diagnosis applet and
// returns its ACK as a synthetic synch failure. From the (unmodified)
// modem's point of view the two cases are indistinguishable.
func (c *Card) Authenticate(rnd, autn [16]byte) AuthResult {
	c.stats.AuthOps++
	if isDFlag(rnd) && c.diag != nil {
		c.stats.DiagMsgs++
		ack := c.diag.HandleAuthDiagnosis(autn)
		var res AuthResult
		res.Kind = AuthSyncFailure
		copy(res.AUTS[:], ack)
		return res
	}

	// Recover SQN: AUTN = SQN⊕AK || AMF || MAC-A. The challenge derives
	// TEMP once for every f-function below.
	ch := c.mil.Challenge(rnd)
	res, ak := ch.F25()
	var sqnBytes [6]byte
	copy(sqnBytes[:], autn[0:6])
	for i := 0; i < 6; i++ {
		sqnBytes[i] ^= ak[i]
	}
	sqn := crypto5g.SQNFromBytes(sqnBytes[:])
	var amf [2]byte
	copy(amf[:], autn[6:8])
	macA, _ := ch.F1(sqn, amf)
	if !crypto5g.ConstantTimeEqual(macA[:], autn[8:16]) {
		return AuthResult{Kind: AuthMACFailure}
	}
	if sqn <= c.sqn {
		// Out-of-range SQN: resynchronise with AUTS carrying our SQN.
		// MAC-S is computed over the card's own SQN per TS 33.102 §6.3.3.
		akStar := ch.F5Star()
		_, macS := ch.F1(c.sqn, amf)
		return AuthResult{Kind: AuthSyncFailure, AUTS: crypto5g.AUTS(c.sqn, akStar, macS)}
	}
	c.sqn = sqn
	if c.diag != nil {
		c.diag.AuthSucceeded()
	}
	return AuthResult{Kind: AuthOK, RES: res, CK: ch.F3(), IK: ch.F4()}
}

func isDFlag(rnd [16]byte) bool {
	for _, b := range rnd {
		if b != 0xFF {
			return false
		}
	}
	return true
}

// QueueProactive enqueues a proactive command for the terminal and fires
// the notification hook. Applets use this for REFRESH/RUN AT COMMAND/
// DISPLAY TEXT.
func (c *Card) QueueProactive(cmd ProactiveCommand) {
	c.proactive = append(c.proactive, cmd)
	if c.onProactive != nil {
		c.onProactive()
	}
}

// Warm makes room for a few queued proactive commands ahead of a
// prototype snapshot: a queue snapshotted empty grows again in every
// restored run.
func (c *Card) Warm() {
	if cap(c.proactive) == 0 {
		c.proactive = make([]ProactiveCommand, 0, 2)
	}
}

// OnProactive registers the terminal's notification hook, invoked whenever
// a proactive command becomes available.
func (c *Card) OnProactive(fn func()) { c.onProactive = fn }

// FetchProactive pops the next pending proactive command.
func (c *Card) FetchProactive() (ProactiveCommand, bool) {
	if len(c.proactive) == 0 {
		return ProactiveCommand{}, false
	}
	cmd := c.proactive[0]
	// Copied down in place: re-slicing would walk the queue through its
	// backing array, and the next command would allocate a new one.
	c.proactive = append(c.proactive[:0], c.proactive[1:]...)
	c.stats.Proactives++
	return cmd, true
}

// PendingProactive returns the number of queued proactive commands.
func (c *Card) PendingProactive() int { return len(c.proactive) }

// Envelope delivers data to the applet with the given AID (the carrier
// app's TelephonyManager channel).
func (c *Card) Envelope(aid string, data []byte) ([]byte, error) {
	a, okA := c.Applet(aid)
	if !okA {
		return nil, fmt.Errorf("sim: envelope to unknown applet %q", aid)
	}
	c.stats.Envelopes++
	return a.HandleEnvelope(data)
}

// Process executes a raw APDU. The typed methods above are what the modem
// uses in-process; Process exists for APDU-level conformance and tests.
func (c *Card) Process(cmd Command) Response {
	c.stats.APDUs++
	switch cmd.INS {
	case INSSelect:
		if cmd.P1 == 0x04 { // select by AID
			a, okA := c.Applet(string(cmd.Data))
			if !okA {
				return status(SWAppletNotFound)
			}
			c.selected = a
			return ok(nil)
		}
		if len(cmd.Data) != 2 {
			return status(SWWrongLength)
		}
		id := FileID(binary.BigEndian.Uint16(cmd.Data))
		if !c.fs.Exists(id) {
			return status(SWFileNotFound)
		}
		c.selectedFile = id
		return ok(nil)

	case INSReadBinary:
		if c.selectedFile == 0 {
			return status(SWFileNotFound)
		}
		c.stats.FileReads++
		data, err := c.fs.Read(c.selectedFile)
		if err != nil {
			return status(SWFileNotFound)
		}
		off := int(cmd.P1)<<8 | int(cmd.P2)
		if off > len(data) {
			return status(SWWrongParams)
		}
		return ok(data[off:])

	case INSUpdateBinary:
		if c.selectedFile == 0 {
			return status(SWFileNotFound)
		}
		c.stats.FileWrites++
		if err := c.fs.Write(c.selectedFile, cmd.Data); err != nil {
			return status(SWMemoryFailure)
		}
		return c.maybeProactive(nil)

	case INSAuthenticate:
		if len(cmd.Data) != 32 {
			return status(SWWrongLength)
		}
		var rnd, autn [16]byte
		copy(rnd[:], cmd.Data[:16])
		copy(autn[:], cmd.Data[16:])
		res := c.Authenticate(rnd, autn)
		switch res.Kind {
		case AuthOK:
			out := make([]byte, 0, 1+8+16+16)
			out = append(out, AuthTagSuccess)
			out = append(out, res.RES[:]...)
			out = append(out, res.CK[:]...)
			out = append(out, res.IK[:]...)
			return c.maybeProactive(out)
		case AuthSyncFailure:
			out := append([]byte{AuthTagSyncFail}, res.AUTS[:]...)
			return c.maybeProactive(out)
		default:
			return status(SWAuthMACFailure)
		}

	case INSEnvelope:
		if c.selected == nil {
			return status(SWAppletNotFound)
		}
		c.stats.Envelopes++
		resp, err := c.selected.HandleEnvelope(cmd.Data)
		if err != nil {
			return status(SWWrongParams)
		}
		return c.maybeProactive(resp)

	default:
		return status(SWINSNotSupported)
	}
}

// maybeProactive wraps a success response, signalling pending proactive
// commands via the 0x91xx status class.
func (c *Card) maybeProactive(data []byte) Response {
	if len(c.proactive) > 0 {
		return okProactive(data)
	}
	return ok(data)
}
