// Command tracegen synthesizes the §3.1 failure corpus (24 k management
// procedures, 2832 failure cases with the Table 1 cause mix, plus data-
// delivery failure cases) and emits it as JSON on stdout, with the Table 1
// summary on stderr.
//
// Usage:
//
//	tracegen [-seed S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	seed "github.com/seed5g/seed"
)

func main() {
	seedVal := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	ds := seed.GenerateDataset(*seedVal)
	fmt.Fprint(os.Stderr, ds.RenderTable1())

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ds); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}
