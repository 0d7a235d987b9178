// Command seedfuzz drives adversarial protocol-fuzzing campaigns against
// the emulated SEED testbed (internal/adversary). Each case boots a full
// device+core stack, records its legitimate NAS/APDU/fleet traffic,
// re-injects seed-derived structured mutations, and asserts the invariant
// set: no panic, legal final modem state, all timers drained, no recovery
// tier above the device's privilege, tampered envelopes rejected.
//
// Campaigns are deterministic: the same -seed yields bit-identical
// summaries at any -parallel (TestCampaignParallelDeterminism in
// internal/adversary and the CI workflow check it).
// Violating cases are minimized by greedy mutation-stripping and, with
// -corpus, written as JSON regression cases replayed by
// `go test ./internal/adversary/`.
//
// Usage:
//
//	seedfuzz -seed 1 -n 10000 -parallel 8 -json summary.json
//	seedfuzz -emit-nas internal/nas/testdata/fuzz/FuzzUnmarshal \
//	         -emit-apdu internal/sim/testdata/fuzz/FuzzParseCommand
//
// Exit status: 0 clean campaign, 1 invariant violations found, 2 usage
// or internal error (-n below 1 is a usage error: a campaign of no cases
// proves nothing).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/seed5g/seed/internal/adversary"
)

// maxMutations bounds the mutation plan of every generated case.
const maxMutations = 4

func main() { os.Exit(run()) }

// run is the command; it returns the exit status.
func run() int {
	var (
		rootSeed  = flag.Int64("seed", 1, "campaign root seed")
		n         = flag.Int("n", 1000, "number of cases")
		parallel  = flag.Int("parallel", 0, "worker count (<=0: GOMAXPROCS)")
		jsonOut   = flag.String("json", "", "write summary JSON to file ('-' for stdout)")
		corpusDir = flag.String("corpus", "", "write minimized violating cases as JSON into this directory")
		emitNAS   = flag.String("emit-nas", "", "record clean traces and write a NAS go-fuzz seed corpus here")
		emitAPDU  = flag.String("emit-apdu", "", "record clean traces and write an APDU go-fuzz seed corpus here")
	)
	flag.Parse()

	if *emitNAS != "" || *emitAPDU != "" {
		return emitCorpora(*rootSeed, *emitNAS, *emitAPDU)
	}
	if *n < 1 {
		return fail("-n %d: need at least 1 case", *n)
	}

	cfg := adversary.Config{RootSeed: *rootSeed, Cases: *n, Workers: *parallel, MaxMutations: maxMutations}
	results, summary := adversary.Run(cfg)

	if *jsonOut == "-" {
		os.Stdout.Write(summary.JSON())
	} else if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, summary.JSON(), 0o644); err != nil {
			return fail("writing %s: %v", *jsonOut, err)
		}
	}

	fmt.Printf("campaign: seed=%d cases=%d mutations applied=%d skipped=%d pools nas-down=%d nas-up=%d apdu=%d fleet=%d\n",
		summary.RootSeed, summary.Cases, summary.Applied, summary.Skipped,
		summary.PoolNASDown, summary.PoolNASUp, summary.PoolAPDU, summary.PoolFleet)

	if summary.Violations == 0 {
		fmt.Println("invariants: all held")
		return 0
	}

	fmt.Printf("invariants: %d violations in %d cases\n", summary.Violations, len(summary.ViolatingCases))
	for _, row := range summary.ByInvariant {
		fmt.Printf("  %-16s %d\n", row.Invariant, row.Count)
	}
	for _, idx := range summary.ViolatingCases {
		r := results[idx]
		min, minRes := adversary.Minimize(r.Case)
		fmt.Printf("case %d (%s, stimulus %s): minimized %d -> %d mutations\n",
			idx, r.Case.ModeName(), adversary.StimulusName(r.Case.Stimulus),
			len(r.Case.Mutations), len(min.Mutations))
		for _, v := range minRes.Violations {
			fmt.Printf("  [%s] %s\n", v.Invariant, v.Detail)
		}
		for _, m := range min.Mutations {
			fmt.Printf("  mutation: %s\n", m)
		}
		if *corpusDir != "" {
			if err := os.MkdirAll(*corpusDir, 0o755); err != nil {
				return fail("creating %s: %v", *corpusDir, err)
			}
			path := filepath.Join(*corpusDir, fmt.Sprintf("case-%d-%d.json", summary.RootSeed, idx))
			if err := adversary.SaveCase(path, min); err != nil {
				return fail("writing %s: %v", path, err)
			}
			fmt.Printf("  saved %s\n", path)
		}
	}
	return 1
}

// emitCorpora records clean testbed traces and writes them as native
// `go test fuzz v1` seed files for the codec fuzz targets. Several
// scenario seeds are recorded so the corpora cover identity variation
// (GUTIs, counters) on top of the shared message shapes; files are named
// by content hash, so re-emission is idempotent. It returns the exit status.
func emitCorpora(rootSeed int64, nasDir, apduDir string) int {
	var nasFrames, apdus [][]byte
	for off := int64(0); off < 4; off++ {
		nf, af := adversary.RecordTraces(rootSeed + off)
		nasFrames = append(nasFrames, nf...)
		apdus = append(apdus, af...)
	}
	if nasDir != "" {
		n, err := adversary.WriteGoFuzzCorpus(nasDir, nasFrames)
		if err != nil {
			return fail("emitting NAS corpus: %v", err)
		}
		fmt.Printf("wrote %d NAS seed inputs to %s\n", n, nasDir)
	}
	if apduDir != "" {
		n, err := adversary.WriteGoFuzzCorpus(apduDir, apdus)
		if err != nil {
			return fail("emitting APDU corpus: %v", err)
		}
		fmt.Printf("wrote %d APDU seed inputs to %s\n", n, apduDir)
	}
	return 0
}

// fail reports an error and returns exit status 2.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "seedfuzz: "+format+"\n", args...)
	return 2
}
