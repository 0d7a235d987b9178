// Trace analysis: the §3 study in miniature. Synthesizes the failure
// corpus with the published Table 1 statistics, prints the breakdown,
// then replays a sample of the control- and data-plane failure cases with
// legacy (modem + Android) handling only, reproducing the Figure 2
// disruption CDFs that motivate SEED.
package main

import (
	"fmt"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
)

func main() {
	ds := seed.GenerateDataset(1)
	fmt.Print(ds.RenderTable1())
	fmt.Println()

	fmt.Println("Replaying failure cases with legacy handling (Figure 2)...")
	fig2 := seed.ExperimentFigure2(runner.New(0), ds, 80, 1)
	fmt.Print(fig2.Render())
	fmt.Println()

	fmt.Println("Reading the CDF the way §3.2 does:")
	fmt.Printf("  - only ~%.0f%% of control-plane failures recover within 2 s;\n",
		100*fractionAt(fig2.Control, 2))
	fmt.Printf("  - ~%.0f%% within 10 s — the rest wait out T3511/T3502 timers;\n",
		100*fractionAt(fig2.Control, 10))
	fmt.Printf("  - only ~%.0f%% of data-plane failures recover within 10 s, and\n",
		100*fractionAt(fig2.Data, 10))
	fmt.Println("    half need minutes: blind retries resend the outdated config until")
	fmt.Println("    Android's ladder finally restarts the modem.")
}

func fractionAt(pts []seed.CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range pts {
		if p.Seconds <= x {
			f = p.Fraction
		}
	}
	return f
}
