// Command seedsim runs one failure scenario on the emulated testbed and
// narrates what happens — a quick way to watch SEED (or the legacy stack)
// diagnose and recover a specific failure.
//
// Usage:
//
//	seedsim [-mode legacy|seed-u|seed-r] [-failure desync|stale-dnn|
//	         tcp-block|udp-block|dns-outage|gateway-stall|expired-plan|
//	         congestion] [-app web|video|live|nav|ar] [-seed S]
//	        [-trials N] [-parallel P] [-timeline]
//
// With -timeline the narration is interleaved with everything the run emits
// to its observer, each with its virtual timestamp and layer: every state
// transition the layers announce (Android's stall detector, the apps' failure
// reports, the UPF's blocks and forwarding state, the modem's state and
// sessions, the carrier app's resolver), every NAS message the modem sends or
// receives, every APDU it relays to the SIM, and every decision of the SIM
// applet and the infrastructure plugin; the instants the scenario's own stop
// conditions fired are marked. "Why did this run end at 3.1 s" and "why did
// the device reset its modem" are answered by the output. Watching changes
// no outcome. -timeline narrates one run, so it is refused with -trials N > 1.
//
// With -trials N > 1 the narration is replaced by a batch run: N
// independent replays of the scenario fan across -parallel workers
// (default GOMAXPROCS), trial i seeded deterministically from the root
// seed, and a recovery-statistics summary is printed. The summary is
// identical at any parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/metrics"
	"github.com/seed5g/seed/internal/runner"
	"github.com/seed5g/seed/internal/sched"
)

// scenarioStatus classifies how far one scenario run got.
type scenarioStatus int

const (
	statusAttachFailed scenarioStatus = iota
	statusNoImpact
	statusNotRecovered
	statusRecovered
)

// scenarioOutcome is one trial's result.
type scenarioOutcome struct {
	Status scenarioStatus
	// ImpactLatency is injection → first app-visible impact.
	ImpactLatency time.Duration
	// Disruption is injection onset → app traffic flowing again.
	Disruption time.Duration
	// Diagnoses is how many SEED diagnosis messages the SIM consumed.
	Diagnoses int
}

func main() {
	modeFlag := flag.String("mode", "seed-r", "device stack: legacy, seed-u, seed-r")
	failure := flag.String("failure", "desync", "failure to inject: desync, stale-dnn, tcp-block, udp-block, dns-outage, gateway-stall, expired-plan, congestion")
	appFlag := flag.String("app", "web", "app traffic: web, video, live, nav, ar")
	seedVal := flag.Int64("seed", 1, "simulation seed")
	trials := flag.Int("trials", 1, "replay the scenario this many times and print summary statistics")
	parallel := flag.Int("parallel", 0, "worker goroutines for -trials (0 = GOMAXPROCS)")
	timeline := flag.Bool("timeline", false, "print every state transition, NAS message, APDU and SEED decision with its virtual timestamp and layer, and mark where the scenario's stop conditions fired (single-trial mode)")
	flag.Parse()

	mode, ok := seed.ParseMode(*modeFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	appKind, ok := map[string]seed.AppKind{
		"web": seed.AppWeb, "video": seed.AppVideo, "live": seed.AppLiveStream,
		"nav": seed.AppNavigation, "ar": seed.AppEdgeAR,
	}[*appFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appFlag)
		os.Exit(2)
	}
	if !validFailure(*failure) {
		fmt.Fprintf(os.Stderr, "unknown failure %q\n", *failure)
		os.Exit(2)
	}

	if *trials > 1 {
		if *timeline {
			fmt.Fprintln(os.Stderr, "-timeline narrates one run: it cannot be combined with -trials > 1")
			flag.Usage()
			os.Exit(2)
		}
		runTrials(mode, appKind, *failure, *seedVal, *trials, *parallel)
		return
	}
	narrate(mode, appKind, *failure, *seedVal, *timeline)
}

// runTrials fans trials independent scenario cells across the worker pool
// and prints recovery statistics.
func runTrials(mode seed.Mode, appKind seed.AppKind, failure string, seedVal int64, trials, parallel int) {
	pool := runner.New(parallel)
	start := time.Now()
	outcomes := runner.Map(pool, trials, func(i int) scenarioOutcome {
		return runScenario(mode, appKind, failure, sched.DeriveSeed(seedVal, uint64(i)), nil)
	})

	var counts [statusRecovered + 1]int
	disruption := metrics.NewSeries()
	impact := metrics.NewSeries()
	for _, o := range outcomes {
		counts[o.Status]++
		if o.Status == statusRecovered {
			disruption.Add(o.Disruption)
		}
		if o.Status == statusRecovered || o.Status == statusNotRecovered {
			impact.Add(o.ImpactLatency)
		}
	}
	fmt.Printf("%d trials of %s under %s (%s traffic), %d workers, %v wall-clock\n",
		trials, failure, mode, appKind, pool.Workers(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  recovered:     %d/%d\n", counts[statusRecovered], trials)
	fmt.Printf("  not recovered: %d\n", counts[statusNotRecovered])
	fmt.Printf("  no impact:     %d\n", counts[statusNoImpact])
	fmt.Printf("  attach failed: %d\n", counts[statusAttachFailed])
	if impact.Len() > 0 {
		fmt.Printf("  impact latency:  median %.1fs  p90 %.1fs\n",
			impact.Median().Seconds(), impact.Percentile(90).Seconds())
	}
	if disruption.Len() > 0 {
		fmt.Printf("  disruption:      median %.1fs  p90 %.1fs  max %.1fs\n",
			disruption.Median().Seconds(), disruption.Percentile(90).Seconds(), disruption.Max().Seconds())
	}
}

// narrate runs the single-trial narrated scenario (the original seedsim
// behaviour), sharing runScenario with the batch mode.
func narrate(mode seed.Mode, appKind seed.AppKind, failure string, seedVal int64, timeline bool) {
	var tbRef *seed.Testbed
	log := func(format string, args ...any) {
		now := time.Duration(0)
		if tbRef != nil {
			now = tbRef.Now()
		}
		fmt.Printf("[%10s] %s\n", now.Round(time.Millisecond), fmt.Sprintf(format, args...))
	}
	hooks := &narrationHooks{log: log, timeline: timeline, bindTestbed: func(tb *seed.Testbed) { tbRef = tb }}
	o := runScenario(mode, appKind, failure, seedVal, hooks)
	switch o.Status {
	case statusAttachFailed:
		os.Exit(1)
	}
}

// narrationHooks carries the logging callbacks the narrated mode installs.
type narrationHooks struct {
	log         func(format string, args ...any)
	timeline    bool
	bindTestbed func(tb *seed.Testbed)
}

// timelineLine prints one line of the -timeline view.
func timelineLine(at time.Duration, layer, text string) {
	fmt.Printf("%11.3fs  %-11s  %s\n", at.Seconds(), layer, text)
}

func validFailure(failure string) bool {
	switch failure {
	case "desync", "stale-dnn", "tcp-block", "udp-block", "dns-outage",
		"gateway-stall", "expired-plan", "congestion":
		return true
	}
	return false
}

// injectFailure triggers the named failure on the testbed.
func injectFailure(tb *seed.Testbed, d *seed.Device, failure string) {
	switch failure {
	case "desync":
		tb.DesyncIdentity(d)
		tb.SimulateMobility(d)
	case "stale-dnn":
		tb.EstablishIMS(d)
		tb.Advance(2 * time.Second)
		tb.MigrateSubscription(d, "internet2", true)
		tb.ReleaseInternetSessions(d)
	case "tcp-block":
		tb.BlockTCP(d)
	case "udp-block":
		tb.BlockUDP(d)
	case "dns-outage":
		tb.SetDNSOutage(true)
	case "gateway-stall":
		tb.StallGateway(d)
	case "expired-plan":
		tb.ExpirePlan(d)
		tb.ReleaseSessions(d)
	case "congestion":
		tb.SetCongestion(true, 30*time.Second)
		tb.InjectControlFailure(d, 22, seed.InjectOpts{Count: 3})
		tb.SimulateMobility(d)
	}
}

// runScenario executes one scenario cell: boot, steady state, inject,
// wait for impact, watch recovery. With hooks it narrates every step;
// with hooks == nil it runs silently (the batch-trials path).
func runScenario(mode seed.Mode, appKind seed.AppKind, failure string, seedVal int64, hooks *narrationHooks) scenarioOutcome {
	tb := seed.New(seedVal)
	d := tb.NewDevice(mode, seed.WithAndroidRecommendedTimers())
	app := d.AddApp(appKind)

	log := func(format string, args ...any) {}
	// fired marks, in the timeline, the instant one of the scenario's own
	// stop conditions was met.
	fired := func(what string) {}
	if hooks != nil {
		hooks.bindTestbed(tb)
		log = hooks.log
		if hooks.timeline {
			tb.Observe(seed.Timeline{Now: tb.Now, Emit: func(ev seed.TimelineEvent) { timelineLine(ev.At, ev.Layer, ev.Text) }})
			fired = func(what string) { timelineLine(tb.Now(), "scenario", "stop condition met: "+what) }
		}
		d.OnConnectivity(func(up bool) { log("data connectivity: %v", up) })
		d.OnReject(func(cp bool, code uint8) {
			plane := "5GSM"
			if cp {
				plane = "5GMM"
			}
			log("reject received: %s cause #%d", plane, code)
		})
		d.OnUserNotice(func(text string) { log("USER NOTICE: %s", text) })
	}

	log("powering on %s device (%s traffic)", mode, appKind)
	d.Start()
	if !tb.RunUntil(d.Connected, time.Minute) {
		log("device failed to attach")
		return scenarioOutcome{Status: statusAttachFailed}
	}
	fired("device connected")
	log("attached and connected, state=%s", d.State())
	app.Start()
	tb.Advance(30 * time.Second)
	sent, okReq, failed, _ := app.Requests()
	log("steady state: %d requests, %d ok, %d failed", sent, okReq, failed)

	log("injecting failure: %s", failure)
	onset := tb.Now()
	injectFailure(tb, d, failure)

	// Wait for the failure to actually bite: connectivity drops, or the
	// app stops getting responses for several of its request intervals.
	interval := 5 * time.Second
	impact := func() bool {
		if !d.Connected() {
			return true
		}
		return app.LastSuccess() >= 0 && tb.Now()-app.LastSuccess() > 3*interval
	}
	if !tb.RunUntil(impact, 10*time.Minute) {
		log("failure produced no app-visible impact within 10 minutes")
		return scenarioOutcome{Status: statusNoImpact, Diagnoses: d.DiagnosesReceived()}
	}
	impactAt := tb.Now()
	fired("connectivity lost, or no response for three request intervals")
	log("impact visible (%.1fs after injection)", (impactAt - onset).Seconds())

	// Watch for up to 20 virtual minutes of recovery.
	recovered := tb.RunUntil(func() bool {
		return d.Connected() && app.LastSuccess() > impactAt
	}, 20*time.Minute)
	if recovered {
		fired("connected and a response since the impact")
	}

	sent2, ok2, failed2, reported := app.Requests()
	log("after failure: +%d requests, +%d ok, +%d failed, %d SEED reports",
		sent2-sent, ok2-okReq, failed2-failed, reported)
	o := scenarioOutcome{
		Status:        statusNotRecovered,
		ImpactLatency: impactAt - onset,
		Diagnoses:     d.DiagnosesReceived(),
	}
	if recovered {
		o.Status = statusRecovered
		o.Disruption = app.LastSuccess() - onset
		log("RECOVERED: app traffic flowing again %.1fs after onset", o.Disruption.Seconds())
	} else {
		log("NOT RECOVERED within 20 minutes (state=%s)", d.State())
	}
	if o.Diagnoses > 0 {
		log("SEED diagnoses received by SIM: %d; actions: %v", o.Diagnoses, d.ActionCounts())
	}
	return o
}
