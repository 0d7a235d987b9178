package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/seed5g/seed/internal/crypto5g"
)

var testCarrierKey = [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

func testProfile() Profile {
	return Profile{
		IMSI:    "310170123456789",
		K:       [16]byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc},
		OP:      [16]byte{0xcd, 0xc2, 0x02, 0xd5, 0x12, 0x3e, 0x20, 0xf6, 0x2b, 0x6d, 0x67, 0x6a, 0xc7, 0x2c, 0xb3, 0x18},
		PLMNs:   []uint32{310170, 310410},
		DNN:     "internet",
		DNS:     [][4]byte{{10, 45, 0, 53}},
		SST:     1,
		RATMode: 2,
	}
}

func newTestCard(t *testing.T) *Card {
	t.Helper()
	c, err := NewCard(DefaultEEPROM, DefaultRAM, testCarrierKey, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fakeApplet is a minimal applet for runtime tests.
type fakeApplet struct {
	aid      string
	ram      int
	code     int
	envelope func(data []byte) ([]byte, error)
	diag     func(autn [16]byte) []byte
	authOKs  int
}

func (f *fakeApplet) AID() string    { return f.aid }
func (f *fakeApplet) RAMBytes() int  { return f.ram }
func (f *fakeApplet) CodeBytes() int { return f.code }
func (f *fakeApplet) HandleEnvelope(data []byte) ([]byte, error) {
	if f.envelope != nil {
		return f.envelope(data)
	}
	return nil, nil
}
func (f *fakeApplet) HandleAuthDiagnosis(autn [16]byte) []byte {
	if f.diag != nil {
		return f.diag(autn)
	}
	return nil
}
func (f *fakeApplet) AuthSucceeded() { f.authOKs++ }

func TestFileSystemQuota(t *testing.T) {
	fs := NewFileSystem(100)
	if err := fs.Write(EFIMSI, make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(EFDNN, make([]byte, 50)); err == nil {
		t.Fatal("write over quota succeeded")
	}
	if err := fs.Write(EFDNN, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if fs.Used() != 100 || fs.Free() != 0 {
		t.Fatalf("used/free = %d/%d", fs.Used(), fs.Free())
	}
	// Shrinking a file reclaims space.
	if err := fs.Write(EFIMSI, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if fs.Free() != 50 {
		t.Fatalf("free after shrink = %d, want 50", fs.Free())
	}
	fs.Delete(EFDNN)
	if fs.Free() != 90 {
		t.Fatalf("free after delete = %d, want 90", fs.Free())
	}
	if fs.Exists(EFDNN) {
		t.Fatal("deleted file exists")
	}
}

func TestFileSystemReadCopy(t *testing.T) {
	fs := NewFileSystem(100)
	fs.Write(EFIMSI, []byte{1, 2, 3})
	data, _ := fs.Read(EFIMSI)
	data[0] = 99
	again, _ := fs.Read(EFIMSI)
	if again[0] != 1 {
		t.Fatal("Read exposes internal buffer")
	}
	if _, err := fs.Read(0x9999); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestFileSystemList(t *testing.T) {
	fs := NewFileSystem(1000)
	fs.Write(EFDNN, []byte("x"))
	fs.Write(EFIMSI, []byte("y"))
	ids := fs.List()
	if len(ids) != 2 || ids[0] != EFIMSI || ids[1] != EFDNN {
		t.Fatalf("List = %v", ids)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	c := newTestCard(t)
	p, err := c.ReadProfile()
	if err != nil {
		t.Fatal(err)
	}
	want := testProfile()
	if p.IMSI != want.IMSI || p.DNN != want.DNN || p.SST != want.SST || p.RATMode != want.RATMode {
		t.Fatalf("profile fields lost: %+v", p)
	}
	if len(p.PLMNs) != 2 || p.PLMNs[0] != 310170 {
		t.Fatalf("PLMNs = %v", p.PLMNs)
	}
	if len(p.DNS) != 1 || p.DNS[0] != [4]byte{10, 45, 0, 53} {
		t.Fatalf("DNS = %v", p.DNS)
	}
}

// networkChallenge produces a valid (RAND, AUTN) pair as the UDM would.
func networkChallenge(t *testing.T, p Profile, sqn uint64, rndSeed byte) (rnd, autn [16]byte) {
	t.Helper()
	mil, err := crypto5g.NewMilenage(p.K[:], p.OP[:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range rnd {
		rnd[i] = rndSeed + byte(i)
	}
	amf := [2]byte{0x80, 0x00}
	macA, _ := mil.F1(rnd, sqn, amf)
	_, _, _, ak := mil.F2345(rnd)
	return rnd, crypto5g.AUTN(sqn, ak, amf, macA)
}

func TestAuthenticateSuccess(t *testing.T) {
	c := newTestCard(t)
	rnd, autn := networkChallenge(t, testProfile(), 100, 7)
	res := c.Authenticate(rnd, autn)
	if res.Kind != AuthOK {
		t.Fatalf("auth kind = %v, want AuthOK", res.Kind)
	}
	tp := testProfile()
	mil, _ := crypto5g.NewMilenage(tp.K[:], tp.OP[:])
	wantRES, wantCK, wantIK, _ := mil.F2345(rnd)
	if res.RES != wantRES || res.CK != wantCK || res.IK != wantIK {
		t.Fatal("derived keys mismatch network side")
	}
}

func TestAuthenticateMACFailure(t *testing.T) {
	c := newTestCard(t)
	rnd, autn := networkChallenge(t, testProfile(), 100, 7)
	autn[9] ^= 0xFF
	if res := c.Authenticate(rnd, autn); res.Kind != AuthMACFailure {
		t.Fatalf("kind = %v, want AuthMACFailure", res.Kind)
	}
}

func TestAuthenticateSQNReplayTriggersResync(t *testing.T) {
	c := newTestCard(t)
	p := testProfile()
	rnd, autn := networkChallenge(t, p, 100, 7)
	if res := c.Authenticate(rnd, autn); res.Kind != AuthOK {
		t.Fatal("first auth failed")
	}
	// Replay the same SQN: must get synch failure with a valid AUTS.
	res := c.Authenticate(rnd, autn)
	if res.Kind != AuthSyncFailure {
		t.Fatalf("kind = %v, want AuthSyncFailure", res.Kind)
	}
	// Network side recovers SQN_MS from AUTS.
	mil, _ := crypto5g.NewMilenage(p.K[:], p.OP[:])
	akStar := mil.F5Star(rnd)
	var sqnBytes [6]byte
	copy(sqnBytes[:], res.AUTS[0:6])
	for i := 0; i < 6; i++ {
		sqnBytes[i] ^= akStar[i]
	}
	if got := crypto5g.SQNFromBytes(sqnBytes[:]); got != 100 {
		t.Fatalf("SQN_MS from AUTS = %d, want 100", got)
	}
	// Higher SQN proceeds.
	rnd2, autn2 := networkChallenge(t, p, 101, 9)
	if res := c.Authenticate(rnd2, autn2); res.Kind != AuthOK {
		t.Fatalf("post-resync auth kind = %v", res.Kind)
	}
}

func TestDFlagRoutesToDiagnosisApplet(t *testing.T) {
	c := newTestCard(t)
	var gotAUTN [16]byte
	ack := []byte{0xA, 0xB, 0xC}
	app := &fakeApplet{aid: "A0SEED", ram: 512, code: 2048, diag: func(autn [16]byte) []byte {
		gotAUTN = autn
		return ack
	}}
	if err := c.InstallApplet(app, InstallMAC(testCarrierKey, app.AID())); err != nil {
		t.Fatal(err)
	}
	var dflag, autn [16]byte
	for i := range dflag {
		dflag[i] = 0xFF
	}
	autn[3] = 0x42
	res := c.Authenticate(dflag, autn)
	if res.Kind != AuthSyncFailure {
		t.Fatalf("kind = %v, want AuthSyncFailure (diag ACK)", res.Kind)
	}
	if gotAUTN != autn {
		t.Fatal("applet did not receive the AUTN payload")
	}
	if !bytes.Equal(res.AUTS[:3], ack) {
		t.Fatalf("AUTS prefix = %x, want applet ack %x", res.AUTS[:3], ack)
	}
	if c.Stats().DiagMsgs != 1 {
		t.Fatalf("DiagMsgs = %d", c.Stats().DiagMsgs)
	}
	// The handler is told of every real AKA run that succeeds, and of
	// nothing else: not the diagnosis delivery, not a replayed challenge.
	rnd, real := networkChallenge(t, testProfile(), 100, 7)
	if app.authOKs != 0 || c.Authenticate(rnd, real).Kind != AuthOK || app.authOKs != 1 {
		t.Fatalf("AuthSucceeded called %d times after a diagnosis and one successful AKA", app.authOKs)
	}
	if c.Authenticate(rnd, real).Kind != AuthSyncFailure || app.authOKs != 1 {
		t.Fatalf("AuthSucceeded called %d times after a replayed challenge", app.authOKs)
	}
}

func TestDFlagWithoutAppletRunsAKA(t *testing.T) {
	c := newTestCard(t)
	var dflag, autn [16]byte
	for i := range dflag {
		dflag[i] = 0xFF
	}
	// Without a diagnosis applet, DFlag RAND is just a (failing) challenge.
	if res := c.Authenticate(dflag, autn); res.Kind != AuthMACFailure {
		t.Fatalf("kind = %v, want AuthMACFailure", res.Kind)
	}
}

func TestInstallAppletSecurity(t *testing.T) {
	c := newTestCard(t)
	app := &fakeApplet{aid: "A0TEST", ram: 100, code: 100}
	var badMAC [16]byte
	if err := c.InstallApplet(app, badMAC); !errors.Is(err, ErrInstallDenied) {
		t.Fatalf("install with bad MAC: %v", err)
	}
	if err := c.InstallApplet(app, InstallMAC(testCarrierKey, app.AID())); err != nil {
		t.Fatal(err)
	}
	// Duplicate AID rejected.
	if err := c.InstallApplet(app, InstallMAC(testCarrierKey, app.AID())); !errors.Is(err, ErrInstallDenied) {
		t.Fatalf("duplicate install: %v", err)
	}
}

func TestInstallAppletResourceQuotas(t *testing.T) {
	c := newTestCard(t)
	hog := &fakeApplet{aid: "A0HOG", ram: DefaultRAM + 1, code: 10}
	if err := c.InstallApplet(hog, InstallMAC(testCarrierKey, hog.AID())); !errors.Is(err, ErrInstallDenied) {
		t.Fatalf("RAM hog install: %v", err)
	}
	big := &fakeApplet{aid: "A0BIG", ram: 10, code: DefaultEEPROM}
	if err := c.InstallApplet(big, InstallMAC(testCarrierKey, big.AID())); !errors.Is(err, ErrInstallDenied) {
		t.Fatalf("EEPROM hog install: %v", err)
	}
	fit := &fakeApplet{aid: "A0FIT", ram: 1024, code: 4096}
	before := c.FS().Free()
	if err := c.InstallApplet(fit, InstallMAC(testCarrierKey, fit.AID())); err != nil {
		t.Fatal(err)
	}
	if c.FS().Free() != before-4096 {
		t.Fatalf("EEPROM not charged: free %d, want %d", c.FS().Free(), before-4096)
	}
	if c.RAMUsed() != 1024 {
		t.Fatalf("RAMUsed = %d", c.RAMUsed())
	}
	if err := c.UninstallApplet("A0FIT"); err != nil {
		t.Fatal(err)
	}
	if c.FS().Free() != before || c.RAMUsed() != 0 {
		t.Fatal("uninstall did not reclaim resources")
	}
	if err := c.UninstallApplet("A0FIT"); err == nil {
		t.Fatal("double uninstall succeeded")
	}
}

func TestProactiveQueue(t *testing.T) {
	c := newTestCard(t)
	notified := 0
	c.OnProactive(func() { notified++ })
	c.QueueProactive(ProactiveCommand{Type: ProactiveRefresh, Mode: RefreshInit})
	c.QueueProactive(ProactiveCommand{Type: ProactiveRunATCommand, Text: "AT+CFUN=1,1"})
	if notified != 2 {
		t.Fatalf("notified = %d", notified)
	}
	if c.PendingProactive() != 2 {
		t.Fatalf("pending = %d", c.PendingProactive())
	}
	cmd, okc := c.FetchProactive()
	if !okc || cmd.Type != ProactiveRefresh || cmd.Mode != RefreshInit {
		t.Fatalf("first fetch = %+v", cmd)
	}
	cmd, _ = c.FetchProactive()
	if cmd.Type != ProactiveRunATCommand || cmd.Text != "AT+CFUN=1,1" {
		t.Fatalf("second fetch = %+v", cmd)
	}
	if _, okc := c.FetchProactive(); okc {
		t.Fatal("fetch from empty queue succeeded")
	}
}

func TestEnvelopeRouting(t *testing.T) {
	c := newTestCard(t)
	var got []byte
	app := &fakeApplet{aid: "A0SEED", ram: 1, code: 1, envelope: func(d []byte) ([]byte, error) {
		got = d
		return []byte("ack"), nil
	}}
	c.InstallApplet(app, InstallMAC(testCarrierKey, app.AID()))
	resp, err := c.Envelope("A0SEED", []byte("report"))
	if err != nil || string(resp) != "ack" || string(got) != "report" {
		t.Fatalf("envelope: resp=%q got=%q err=%v", resp, got, err)
	}
	if _, err := c.Envelope("A0NONE", nil); err == nil {
		t.Fatal("envelope to missing applet succeeded")
	}
}

func TestAPDUSelectReadUpdate(t *testing.T) {
	c := newTestCard(t)
	sel := make([]byte, 2)
	binary.BigEndian.PutUint16(sel, uint16(EFDNN))
	r := c.Process(Command{CLA: 0x00, INS: INSSelect, Data: sel})
	if !r.OK() {
		t.Fatalf("select SW = %04X", r.SW)
	}
	r = c.Process(Command{INS: INSReadBinary})
	if !r.OK() || string(r.Data) != "internet" {
		t.Fatalf("read = %q SW=%04X", r.Data, r.SW)
	}
	r = c.Process(Command{INS: INSUpdateBinary, Data: []byte("ims")})
	if !r.OK() {
		t.Fatalf("update SW = %04X", r.SW)
	}
	r = c.Process(Command{INS: INSReadBinary})
	if string(r.Data) != "ims" {
		t.Fatalf("read after update = %q", r.Data)
	}
	// Offset read.
	r = c.Process(Command{INS: INSReadBinary, P2: 1})
	if string(r.Data) != "ms" {
		t.Fatalf("offset read = %q", r.Data)
	}
	// Missing file.
	binary.BigEndian.PutUint16(sel, 0x9999)
	if r := c.Process(Command{INS: INSSelect, Data: sel}); r.SW != SWFileNotFound {
		t.Fatalf("select missing SW = %04X", r.SW)
	}
}

func TestAPDUAuthenticate(t *testing.T) {
	c := newTestCard(t)
	rnd, autn := networkChallenge(t, testProfile(), 50, 3)
	data := append(append([]byte{}, rnd[:]...), autn[:]...)
	r := c.Process(Command{INS: INSAuthenticate, Data: data})
	if !r.OK() || r.Data[0] != AuthTagSuccess {
		t.Fatalf("auth APDU: SW=%04X tag=%02X", r.SW, r.Data[0])
	}
	if len(r.Data) != 1+8+16+16 {
		t.Fatalf("auth response length %d", len(r.Data))
	}
	// Wrong length.
	if r := c.Process(Command{INS: INSAuthenticate, Data: data[:10]}); r.SW != SWWrongLength {
		t.Fatalf("short auth SW = %04X", r.SW)
	}
	// MAC failure surfaces as the auth error status word.
	autn[9] ^= 0xFF
	data = append(append([]byte{}, rnd[:]...), autn[:]...)
	if r := c.Process(Command{INS: INSAuthenticate, Data: data}); r.SW != SWAuthMACFailure {
		t.Fatalf("bad-MAC auth SW = %04X", r.SW)
	}
}

func TestAPDUProactiveStatusWord(t *testing.T) {
	c := newTestCard(t)
	sel := make([]byte, 2)
	binary.BigEndian.PutUint16(sel, uint16(EFDNN))
	c.Process(Command{INS: INSSelect, Data: sel})
	c.QueueProactive(ProactiveCommand{Type: ProactiveRefresh, Mode: RefreshInit})
	r := c.Process(Command{INS: INSUpdateBinary, Data: []byte("x")})
	if !r.ProactivePending() {
		t.Fatalf("SW = %04X, want 91xx proactive-pending", r.SW)
	}
}

func TestAPDUUnknownINS(t *testing.T) {
	c := newTestCard(t)
	if r := c.Process(Command{INS: 0x42}); r.SW != SWINSNotSupported {
		t.Fatalf("SW = %04X", r.SW)
	}
}

func TestAPDUEnvelopeNeedsSelectedApplet(t *testing.T) {
	c := newTestCard(t)
	if r := c.Process(Command{INS: INSEnvelope, Data: []byte("x")}); r.SW != SWAppletNotFound {
		t.Fatalf("SW = %04X", r.SW)
	}
	app := &fakeApplet{aid: "A0SEED", ram: 1, code: 1, envelope: func(d []byte) ([]byte, error) {
		return []byte("ok"), nil
	}}
	c.InstallApplet(app, InstallMAC(testCarrierKey, app.AID()))
	if r := c.Process(Command{INS: INSSelect, P1: 0x04, Data: []byte("A0SEED")}); !r.OK() {
		t.Fatalf("select applet SW = %04X", r.SW)
	}
	if r := c.Process(Command{INS: INSEnvelope, Data: []byte("x")}); !r.OK() || string(r.Data) != "ok" {
		t.Fatalf("envelope SW = %04X data=%q", r.SW, r.Data)
	}
}

func TestStringers(t *testing.T) {
	if !strings.Contains(ProactiveCommand{Type: ProactiveRunATCommand, Text: "AT+CGATT=1"}.String(), "AT+CGATT=1") {
		t.Fatal("proactive String lost text")
	}
	if ProactiveRefresh.String() != "REFRESH" {
		t.Fatal("REFRESH name")
	}
	if !strings.Contains(Command{CLA: 0x80, INS: 0x12}.String(), "80 12") {
		t.Fatal("Command String")
	}
	if ProactiveType(99).String() == "" {
		t.Fatal("unknown proactive type String empty")
	}
}

// Property: for any SQN sequence the card accepts strictly increasing
// values and resyncs otherwise — it must never accept a replay.
func TestPropertySQNMonotonic(t *testing.T) {
	p := testProfile()
	f := func(sqns []uint32) bool {
		c, err := NewCard(DefaultEEPROM, DefaultRAM, testCarrierKey, p)
		if err != nil {
			return false
		}
		var highest uint64
		for i, s := range sqns {
			sqn := uint64(s) + 1 // non-zero
			rnd, autn := challengeNoT(p, sqn, byte(i))
			res := c.Authenticate(rnd, autn)
			if sqn > highest {
				if res.Kind != AuthOK {
					return false
				}
				highest = sqn
			} else if res.Kind != AuthSyncFailure {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func challengeNoT(p Profile, sqn uint64, seed byte) (rnd, autn [16]byte) {
	mil, _ := crypto5g.NewMilenage(p.K[:], p.OP[:])
	for i := range rnd {
		rnd[i] = seed + byte(i)*3
	}
	amf := [2]byte{0x80, 0x00}
	macA, _ := mil.F1(rnd, sqn, amf)
	_, _, _, ak := mil.F2345(rnd)
	return rnd, crypto5g.AUTN(sqn, ak, amf, macA)
}
