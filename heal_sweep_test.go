package seed

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/runner"
)

// The heal-time sweep. A transient cell's outcome is a step function of one
// number, the time its cause takes to heal, so sweeping that number shows
// every band where a mode loses, with no sampling.
const (
	sweepHealFrom = 100 * time.Millisecond
	sweepHealStep = 200 * time.Millisecond
	sweepHeals    = 200 // 0.1 s to 39.9 s
	// sweepSlack is how much slower than the other mode a recovery must be
	// to count as a loss.
	sweepSlack = 100 * time.Millisecond
	// sweepClasses is how many (plane, cause, scenario) classes the datasets
	// of seeds 1–3 hold.
	sweepClasses = 25
)

// never stands for a cell that did not recover within the replay window.
const never = time.Duration(math.MaxInt64)

var sweepModes = []struct {
	mode Mode
	name string
}{{ModeLegacy, "Legacy"}, {ModeSEEDU, "SEED-U"}, {ModeSEEDR, "SEED-R"}}

// sweepHeal is the i-th heal time of the grid.
func sweepHeal(i int) time.Duration { return sweepHealFrom + time.Duration(i)*sweepHealStep }

// firstOfEachClass returns the dataset's first failure case of each
// (plane, cause, scenario) class, in dataset order.
func firstOfEachClass(ds *Dataset) []FailureCase {
	type class struct {
		control  bool
		code     uint8
		scenario FailureScenario
	}
	seen := map[class]bool{}
	var out []FailureCase
	for _, fc := range ds.Failures() {
		k := class{fc.ControlPlane, fc.CauseCode, fc.Scenario}
		if !seen[k] {
			seen[k] = true
			out = append(out, fc)
		}
	}
	return out
}

func className(fc FailureCase) string {
	plane := "data"
	if fc.ControlPlane {
		plane = "control"
	}
	return fmt.Sprintf("%s/%d %v", plane, fc.CauseCode, fc.Scenario)
}

func fmtRecovery(d time.Duration) string {
	if d == never {
		return "never"
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// runsOfEqualValue renders a mode's recoveries over the heal grid as runs:
// "0.1–3.1s: 3.20s" for a run of heals that recover alike, and "heal+0.90s"
// for a run whose recovery follows the heal time by a constant.
func runsOfEqualValue(rec []time.Duration) string {
	var parts []string
	for i := 0; i < len(rec); {
		j := i + 1
		for j < len(rec) && rec[j] == rec[i] {
			j++
		}
		value := fmtRecovery(rec[i])
		if j == i+1 && rec[i] != never {
			// Not constant: try recovery = heal + c.
			c := rec[i] - sweepHeal(i)
			for j < len(rec) && rec[j] != never && rec[j]-sweepHeal(j) == c {
				j++
			}
			if j > i+1 {
				value = fmt.Sprintf("heal%+.2fs", c.Seconds())
			}
		}
		parts = append(parts, fmt.Sprintf("%.1f–%.1fs: %s", sweepHeal(i).Seconds(), sweepHeal(j-1).Seconds(), value))
		i = j
	}
	return strings.Join(parts, ", ")
}

// losingBands lists the heal bands where loser recovers more than
// sweepSlack after winner, and counts the heals and the largest loss.
func losingBands(loser, winner []time.Duration) (bands string, heals int, worst time.Duration) {
	loses := func(k int) bool {
		if winner[k] == never {
			return false
		}
		return loser[k] == never || loser[k]-winner[k] > sweepSlack
	}
	var parts []string
	for i := 0; i < len(loser); {
		if !loses(i) {
			i++
			continue
		}
		j := i
		for j < len(loser) && loses(j) {
			if loser[j] == never {
				worst = never
			} else if worst != never {
				worst = max(worst, loser[j]-winner[j])
			}
			j++
		}
		heals += j - i
		parts = append(parts, fmt.Sprintf("%.1f–%.1fs", sweepHeal(i).Seconds(), sweepHeal(j-1).Seconds()))
		i = j
	}
	return strings.Join(parts, ", "), heals, worst
}

// TestHealSweep replays the first dataset case of each (plane, cause,
// scenario) class with its heal time set across the grid, in all three
// modes and at seeds 1–3 (seed 1 alone under the race detector), and
// logs, per class, each mode's recovery as runs over heal time and the
// bands where SEED loses to Legacy or SEED-R to SEED-U. It is a report:
// it asserts only that every class was found. Run it with go test -v -run
// TestHealSweep to read it.
func TestHealSweep(t *testing.T) {
	seeds := int64(3)
	if raceEnabled {
		seeds = 1 // instrumented, the three seeds take 26 s on 2 vCPUs
	}
	pool := runner.New(0)
	start := time.Now()
	for seedVal := int64(1); seedVal <= seeds; seedVal++ {
		classes := firstOfEachClass(GenerateDataset(seedVal))
		if len(classes) != sweepClasses {
			t.Errorf("seed %d: the dataset holds %d classes, want %d", seedVal, len(classes), sweepClasses)
		}
		per := sweepHeals * len(sweepModes)
		out := runner.Map(pool, len(classes)*per, func(i int) time.Duration {
			fc := classes[i/per]
			fc.Heal = sweepHeal(i % per / len(sweepModes))
			r := ReplayManagement(fc, sweepModes[i%len(sweepModes)].mode, seedVal)
			if !r.Recovered {
				return never
			}
			return r.Disruption
		})
		losing := 0 // classes where SEED loses to Legacy at some heal
		for c, fc := range classes {
			rec := make([][]time.Duration, len(sweepModes))
			for m := range sweepModes {
				for h := range sweepHeals {
					rec[m] = append(rec[m], out[c*per+h*len(sweepModes)+m])
				}
			}
			t.Logf("seed %d %s (case %d):", seedVal, className(fc), fc.ID)
			for m, sm := range sweepModes {
				t.Logf("  %-6s %s", sm.name, runsOfEqualValue(rec[m]))
			}
			toLegacy := false
			for _, vs := range []struct{ loser, winner int }{{1, 0}, {2, 0}, {2, 1}} {
				bands, heals, worst := losingBands(rec[vs.loser], rec[vs.winner])
				if heals > 0 {
					toLegacy = toLegacy || vs.winner == 0
					t.Logf("  %s loses to %s at %d of %d heals (%s), by up to %s",
						sweepModes[vs.loser].name, sweepModes[vs.winner].name, heals, sweepHeals, bands, fmtRecovery(worst))
				}
			}
			if toLegacy {
				losing++
			}
		}
		t.Logf("seed %d: SEED loses to Legacy at some heal in %d of %d classes", seedVal, losing, len(classes))
	}
	t.Logf("%d classes × %d heals × %d modes × %d seeds in %v", sweepClasses, sweepHeals, len(sweepModes), seeds, time.Since(start).Round(time.Millisecond))
}
