package seed_test

import (
	"testing"

	seed "github.com/seed5g/seed"
	"github.com/seed5g/seed/internal/runner"
)

// table3 is the paper's Table 3 as seedbench printed it when it was a
// literal: the rendered table, which core.Decide now produces, must say
// the same.
const table3 = "Table 3: failure handling decisions with diagnosis results\n" +
	"  Diagnosis Class                  SEED-U (no root)               SEED-R (root)               \n" +
	"  Control-plane causes             A1 SIM profile reload          B1 modem reset              \n" +
	"  Control-plane causes w/ config   A2+A1 config update & reload   B2 reattach with update     \n" +
	"  Data-plane causes                A1 SIM profile reload          B3 data-plane reset         \n" +
	"  Data-plane causes w/ config      A3 config update               B3 data-plane modification  \n" +
	"  Data delivery (app/OS report)    A3 config update               B3 reset / modification     \n"

func TestTable3RendersDecide(t *testing.T) {
	var ev seed.Evaluation
	var got string
	ev.RunAll(runner.New(1), []string{"table3"}, func(r seed.StepRun) { got = r.Text })
	if got != table3 {
		t.Errorf("Table 3 renders\n%s\nwant\n%s", got, table3)
	}
}
