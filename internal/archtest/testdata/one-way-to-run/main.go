// Command seedsim is the one-way-to-run fixture: it builds a testbed and a
// device of its own instead of watching a counted cell.
package main

import (
	"fmt"

	seed "github.com/seed5g/seed"
)

func main() {
	tb := seed.New(1)                 // want
	d := tb.NewDevice(seed.ModeSEEDR) // want
	d.Start()
	fmt.Println(d.Connected())
}
