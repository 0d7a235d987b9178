package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/seed5g/seed/internal/cause"
)

// Records is Algorithm 1's record table (§5.3): per cause, the success
// count of each reset action. The SIM keeps one (SIMRecord) and uploads it;
// the infrastructure folds uploads into its own (NetRecord) by addition,
// in-process (Learner) and in the fleet tier alike. This file holds the
// only code that folds, queries or encodes the table.
type Records map[cause.Cause]map[ActionID]int

// Add counts n more successes of action a for cause c.
func (r Records) Add(c cause.Cause, a ActionID, n int) {
	acts := r[c]
	if acts == nil {
		acts = make(map[ActionID]int)
		r[c] = acts
	}
	acts[a] += n
}

// Merge folds src into r (Algorithm 1 lines 8–10): addition, so the result
// is independent of fold order.
func (r Records) Merge(src Records) {
	for c, acts := range src {
		dst := r[c]
		if dst == nil {
			dst = make(map[ActionID]int, len(acts))
			r[c] = dst
		}
		for a, n := range acts {
			dst[a] += n
		}
	}
}

// Evidence returns the total observations for a cause.
func (r Records) Evidence(c cause.Cause) int {
	total := 0
	for _, n := range r[c] {
		total += n
	}
	return total
}

// Best returns the action with the most successes for a cause and whether
// any action has a positive count. Ties break toward the cheaper action
// (later in LearningOrder means more disruptive, so prefer earlier).
func (r Records) Best(c cause.Cause) (ActionID, bool) {
	var t Tally
	t.Add(r, c)
	return t.Best()
}

// Tally sums one cause's success counts per action over any number of
// tables without building a merged one: the fleet answers a query from
// its shards' tables through a Tally. Its zero value is empty.
type Tally struct {
	// n is indexed by ActionID; ActionB3 is the largest.
	n [ActionB3 + 1]int
}

// Add adds table r's counts for cause c.
func (t *Tally) Add(r Records, c cause.Cause) {
	acts := r[c]
	for _, a := range LearningOrder {
		t.n[a] += acts[a]
	}
}

// Best is Records.Best over the sum of the tables added: the action with
// the most successes, ties toward the earlier in LearningOrder, and
// whether any action has a positive count.
func (t *Tally) Best() (ActionID, bool) {
	var best ActionID
	bestN := 0
	for _, a := range LearningOrder {
		if n := t.n[a]; n > bestN {
			best, bestN = a, n
		}
	}
	return best, bestN > 0
}

// Rows returns the number of (cause, action) entries in the table.
func (r Records) Rows() int {
	rows := 0
	for _, acts := range r {
		rows += len(acts)
	}
	return rows
}

// Clone returns a deep copy.
func (r Records) Clone() Records {
	out := make(Records, len(r))
	out.Merge(r)
	return out
}

// The table encodes as rows of
//
//	plane(1) | code(1) | action(1) | count(countBytes, big-endian)
//
// sorted by (plane, code, action), with rows whose count is not positive
// left out. Two widths are in use: 2 for the SIM's EF SEEDLog file and its
// OTA upload (a uint16 field, so the record fits the card's EEPROM and an
// SMS-sized upload) and 4 for the fleet's aggregate model and its
// snapshots (a uint32 field, which a fleet's sum needs). The encoding is
// canonical — equal tables give equal bytes whatever their insertion or
// fold order — so "the networked aggregate equals the in-process
// sequential fold" is a byte comparison.

// AppendRecords appends the canonical encoding of r with countBytes-wide
// counts (2 or 4) to dst, clamping each count to the field.
func AppendRecords(dst []byte, r Records, countBytes int) []byte {
	type row struct {
		c cause.Cause
		a ActionID
		n int
	}
	rows := make([]row, 0, r.Rows())
	for c, acts := range r {
		for a, n := range acts {
			if n > 0 {
				rows = append(rows, row{c, a, n})
			}
		}
	}
	slices.SortFunc(rows, func(x, y row) int {
		if x.c.Plane != y.c.Plane {
			return int(x.c.Plane) - int(y.c.Plane)
		}
		if x.c.Code != y.c.Code {
			return int(x.c.Code) - int(y.c.Code)
		}
		return int(x.a) - int(y.a)
	})
	limit := countMax(countBytes)
	dst = slices.Grow(dst, len(rows)*(3+countBytes))
	for _, w := range rows {
		dst = append(dst, byte(w.c.Plane), byte(w.c.Code), byte(w.a))
		n := min(w.n, limit)
		if countBytes == 2 {
			dst = binary.BigEndian.AppendUint16(dst, uint16(n))
		} else {
			dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		}
	}
	return dst
}

// ParseRecords decodes rows with countBytes-wide counts (2 or 4). Rows need
// not be sorted; repeated (cause, action) rows add up. Any length that is
// not a whole number of rows is an error.
func ParseRecords(data []byte, countBytes int) (Records, error) {
	out := make(Records)
	if _, err := out.AddRows(data, countBytes); err != nil {
		return nil, err
	}
	return out, nil
}

// AddRows folds encoded rows with countBytes-wide counts (2 or 4) into r
// and returns how many it read: the one decoder of the encoding, which
// ParseRecords and the fleet's fold share. A length that is not a whole
// number of rows is an error and adds nothing. For a canonical encoding
// (AppendRecords) rows equals the Rows() of the table it decodes to.
func (r Records) AddRows(data []byte, countBytes int) (rows int, err error) {
	countMax(countBytes) // panics on any other width
	rowLen := 3 + countBytes
	if len(data)%rowLen != 0 {
		return 0, fmt.Errorf("core: record table length %d not a multiple of %d", len(data), rowLen)
	}
	for i := 0; i < len(data); i += rowLen {
		c := cause.Cause{Plane: cause.Plane(data[i]), Code: cause.Code(data[i+1])}
		var n int
		if countBytes == 2 {
			n = int(binary.BigEndian.Uint16(data[i+3:]))
		} else {
			n = int(binary.BigEndian.Uint32(data[i+3:]))
		}
		r.Add(c, ActionID(data[i+2]), n)
	}
	return len(data) / rowLen, nil
}

// countMax is the largest count a countBytes-wide field holds.
func countMax(countBytes int) int {
	switch countBytes {
	case 2:
		return 0xFFFF
	case 4:
		return 0xFFFFFFFF
	default:
		panic(fmt.Sprintf("core: record count width %d, want 2 or 4", countBytes))
	}
}

// MarshalRecords encodes a table in the SIM's EF SEEDLog / OTA upload
// format (2-byte counts).
func MarshalRecords(r Records) []byte { return AppendRecords(nil, r, 2) }

// UnmarshalRecords decodes an uploaded SIMRecord blob (2-byte counts).
func UnmarshalRecords(data []byte) (Records, error) { return ParseRecords(data, 2) }
