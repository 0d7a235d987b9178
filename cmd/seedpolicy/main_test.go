package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/policy"
)

// The -json report names each candidate's trial order by its tiers, the
// names OrderNames prints, not as the base64 of the action bytes.
func TestReportNamesTrialOrder(t *testing.T) {
	paper := policy.Paper()
	report := policyReport{Search: policy.SearchResult{
		Paper: policy.Candidate{Policy: paper, Order: policy.OrderNames(paper.TrialOrder)},
		Best:  policy.Candidate{Policy: paper, Order: policy.OrderNames(paper.TrialOrder)},
	}}
	path := filepath.Join(t.TempDir(), "report.json")
	writeReport(path, &report, time.Now())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Search struct {
			Paper struct {
				Policy struct {
					TrialOrder []string `json:"trial_order"`
				} `json:"policy"`
			} `json:"paper"`
		} `json:"search"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	want := strings.Split(policy.OrderNames(paper.TrialOrder), ">")
	if got := decoded.Search.Paper.Policy.TrialOrder; !reflect.DeepEqual(got, want) {
		t.Errorf("trial_order %q, want %q", got, want)
	}
}
