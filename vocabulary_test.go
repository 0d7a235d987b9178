package seed

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/dataplane"
	"github.com/seed5g/seed/internal/trace"
	"github.com/seed5g/seed/internal/workload"
)

// The facade's enums, records and outcome ARE the internal ones: a seed.X
// is assignable to its owning type with no conversion. (A mirror type
// breaks the build here.)
var (
	_ core.DeviceMode      = ModeSEEDU
	_ dataplane.AppKind    = AppEdgeAR
	_ trace.Scenario       = ScenarioDesync
	_ trace.DeliveryKind   = DeliveryDNSOutage
	_ trace.DeliveryRecord = DeliveryCase{}
	_ workload.Outcome     = ReplayResult{}
)

// TestVocabularySpellings pins, for every value of the four enums, the
// number and the String() spelling the rendered tables in EXPERIMENTS.md,
// seedsim's -failure names and case line and the benchmark's span labels
// print, and the spec/CLI spelling of a mode (the corpus JSON's "mode" field) through
// ParseMode: an alias must not move any of them.
func TestVocabularySpellings(t *testing.T) {
	type row struct {
		v     fmt.Stringer
		n     int
		spell string
	}
	rows := []row{
		{ModeLegacy, 1, "Legacy"}, {ModeSEEDU, 2, "SEED-U"}, {ModeSEEDR, 3, "SEED-R"},
		{AppVideo, 1, "video"}, {AppLiveStream, 2, "live-stream"}, {AppWeb, 3, "web"},
		{AppNavigation, 4, "navigation"}, {AppEdgeAR, 5, "edge-AR"},
		{ScenarioTransient, 1, "transient"}, {ScenarioDesync, 2, "state-desync"},
		{ScenarioStaleConfigDevice, 3, "stale-config-device"},
		{ScenarioStaleConfigEverywhere, 4, "stale-config-everywhere"},
		{ScenarioUserAction, 5, "user-action"}, {ScenarioSilent, 6, "silent-timeout"},
		{DeliveryTCPBlock, 1, "tcp-block"}, {DeliveryUDPBlock, 2, "udp-block"},
		{DeliveryDNSOutage, 3, "dns-outage"}, {DeliveryStalledGateway, 4, "stalled-gateway"},
	}
	for _, r := range rows {
		if got := r.v.String(); got != r.spell {
			t.Errorf("%T(%d).String() = %q, want %q", r.v, r.n, got, r.spell)
		}
		if got := int(reflect.ValueOf(r.v).Uint()); got != r.n {
			t.Errorf("%T %s = %d, want %d", r.v, r.spell, got, r.n)
		}
	}

	for spec, want := range map[string]Mode{"legacy": ModeLegacy, "seed-u": ModeSEEDU, "seed-r": ModeSEEDR} {
		if got, ok := ParseMode(spec); !ok || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", spec, got, ok, want)
		}
	}
	for _, bad := range []string{"", "Legacy", "SEED-U", "seed_r"} {
		if got, ok := ParseMode(bad); ok {
			t.Errorf("ParseMode(%q) = %v, want not ok", bad, got)
		}
	}
	if !reflect.DeepEqual(Modes, []Mode{ModeLegacy, ModeSEEDU, ModeSEEDR}) || len(AppKinds) != 5 {
		t.Errorf("Modes = %v, AppKinds = %v", Modes, AppKinds)
	}
}

// TestHooksFireInRegistrationOrder registers an OnReject subscriber, an
// injection whose heal timer is armed by its own reject hook, and a second
// subscriber, on a restored prototype: every reject reaches them in that
// order (the heal hook's timer is pending when the second subscriber runs,
// not when the first does), and the next restore leaves none of them behind.
func TestHooksFireInRegistrationOrder(t *testing.T) {
	p := NewProto(func(tb *Testbed) *Device { return tb.NewDevice(ModeLegacy) })
	const heal = 4 * time.Second

	run := func(subscribe func(tb *Testbed, d *Device, inject func())) (connectedAt time.Duration) {
		tb, d, put := p.Cell(7)
		defer put()
		if d.inner.OnReject != nil {
			t.Fatal("a restored device still carries a reject hook")
		}
		subscribe(tb, d, func() {
			tb.InjectControlFailure(d, 22, InjectOpts{Count: -1, HealAfter: heal})
		})
		d.Start()
		if !tb.await(d.Connected, replayWindow) {
			t.Fatal("device never connected")
		}
		return tb.Now()
	}

	type call struct {
		who     string
		pending int
	}
	var calls []call
	first := run(func(tb *Testbed, d *Device, inject func()) {
		d.OnReject(func(bool, uint8) { calls = append(calls, call{"a", tb.kern.Pending()}) })
		inject()
		d.OnReject(func(bool, uint8) { calls = append(calls, call{"b", tb.kern.Pending()}) })
	})
	if len(calls) < 4 || len(calls)%2 != 0 {
		t.Fatalf("want at least two rejects seen by both subscribers, got %d calls", len(calls))
	}
	for i := 0; i < len(calls); i += 2 {
		a, b := calls[i], calls[i+1]
		if a.who != "a" || b.who != "b" {
			t.Fatalf("reject %d reached subscribers as %s, %s; want a, b", i/2, a.who, b.who)
		}
		// The heal hook sits between the two and arms its timer once, on
		// the first reject.
		armed := 0
		if i == 0 {
			armed = 1
		}
		if b.pending-a.pending != armed {
			t.Errorf("reject %d: %d timers armed between the subscribers, want %d", i/2, b.pending-a.pending, armed)
		}
	}

	// The same instance, restored: only the new subscriber is called, as
	// often as each old one was, and the cell ends at the same instant.
	seen := 0
	second := run(func(_ *Testbed, d *Device, inject func()) {
		inject()
		d.OnReject(func(bool, uint8) { seen++ })
	})
	if st := p.Stats(); st.Boots != 1 || st.Restores != 2 {
		t.Fatalf("prototype stats %+v, want one boot serving both cells", st)
	}
	if seen != len(calls)/2 || second != first {
		t.Errorf("after the restore: %d rejects, connected at %v; before: %d, %v", seen, second, len(calls)/2, first)
	}
}
