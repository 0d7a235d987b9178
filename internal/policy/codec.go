package policy

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"

	"github.com/seed5g/seed/internal/core"
)

// Trace fingerprint: a line-oriented, fully deterministic rendering of a
// decision-event stream, one event per line, fields space-separated, all
// numeric except the quoted IMSI. Reports print its digest so two runs can
// be told apart at a glance; trace equality itself compares the events
// (slices.Equal), never this text. TestTraceDigestsPinned pins the bytes.

// codecHeader versions the format.
const codecHeader = "seedtrace/1"

// Encode renders events canonically. Encode(nil) is just the header.
func Encode(events []core.DecisionEvent) []byte {
	var b bytes.Buffer
	b.WriteString(codecHeader)
	b.WriteByte('\n')
	for _, ev := range events {
		fmt.Fprintf(&b, "%d %d %s %d %d %d %d %d %d %d %d\n",
			int64(ev.At), ev.Stage, strconv.Quote(ev.IMSI),
			ev.Plane, ev.Code, ev.Kind,
			ev.Proposed, ev.Action, ev.Seq, int64(ev.Wait), ev.Evidence)
	}
	return b.Bytes()
}

// Digest returns a short hex fingerprint of the canonical encoding — what
// the reports print for a trace.
func Digest(events []core.DecisionEvent) string {
	h := fnv.New64a()
	h.Write(Encode(events))
	return fmt.Sprintf("%016x", h.Sum64())
}
