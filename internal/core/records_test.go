package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/sim"
)

// TestAppletRecordBytesCanonical resolves trials for four causes on fresh
// applets: the OTA upload and the EF SEEDLog file must carry the same
// bytes on every build, and those bytes must be MarshalRecords of the
// table. An encoder that walks a Go map fails this almost surely.
func TestAppletRecordBytesCanonical(t *testing.T) {
	causes := []cause.Cause{
		cause.SM(177), cause.MM(cause.MMPLMNNotAllowed), cause.SM(150), cause.MM(111),
	}
	var wantUpload, wantLog []byte
	for build := 0; build < 50; build++ {
		h := newAppletHarness(t, DefaultAppletConfig())
		for _, c := range causes {
			h.applet.startTrial(c)
			h.k.RunFor(100 * time.Millisecond)
			h.applet.notifyRecovered()
		}
		table := h.applet.Records()
		if table.Rows() != len(causes) {
			t.Fatalf("records = %v", table)
		}
		log, err := h.card.FS().Read(sim.EFSEEDLog)
		if err != nil {
			t.Fatal(err)
		}
		upload, err := h.applet.HandleEnvelope([]byte{envUploadRecs})
		if err != nil {
			t.Fatal(err)
		}
		if build == 0 {
			wantUpload, wantLog = upload, log
			if !bytes.Equal(upload, MarshalRecords(table)) || !bytes.Equal(log, upload) {
				t.Fatalf("upload %x, EF SEEDLog %x, MarshalRecords %x", upload, log, MarshalRecords(table))
			}
			continue
		}
		if !bytes.Equal(upload, wantUpload) || !bytes.Equal(log, wantLog) {
			t.Fatalf("build %d: upload %x / EF SEEDLog %x, first build %x / %x", build, upload, log, wantUpload, wantLog)
		}
	}
}

// randomRecords builds a table of up to 12 rows over a small cause space,
// so generated tables overlap.
func randomRecords(rng *rand.Rand) Records {
	r := Records{}
	for i := rng.Intn(13); i > 0; i-- {
		c := cause.Cause{Plane: cause.Plane(1 + rng.Intn(2)), Code: cause.Code(rng.Intn(4))}
		r.Add(c, LearningOrder[rng.Intn(len(LearningOrder))], 1+rng.Intn(70000))
	}
	return r
}

func TestRecordsMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b, c := randomRecords(rng), randomRecords(rng), randomRecords(rng)
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !bytes.Equal(AppendRecords(nil, ab, 4), AppendRecords(nil, ba, 4)) {
			t.Fatalf("a+b != b+a for %v, %v", a, b)
		}
		left := ab.Clone() // (a+b)+c
		left.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		right := a.Clone() // a+(b+c)
		right.Merge(bc)
		if !bytes.Equal(AppendRecords(nil, left, 4), AppendRecords(nil, right, 4)) {
			t.Fatalf("(a+b)+c != a+(b+c) for %v, %v, %v", a, b, c)
		}
		// The fleet answers a query by summing one cause over its shards'
		// tables in a Tally: its argmax is Best's over the merged table,
		// ties included, which counts cut to 1 or 2 make common. Both are
		// the first action in LearningOrder with the largest positive sum.
		for _, tables := range [][]Records{{a, b, c}, {tied(a), tied(b), tied(c)}} {
			merged := Records{}
			for _, r := range tables {
				merged.Merge(r)
			}
			for plane := cause.Plane(1); plane <= 2; plane++ {
				for code := range cause.Code(4) {
					cc := cause.Cause{Plane: plane, Code: code}
					var sum Tally
					for _, r := range tables {
						sum.Add(r, cc)
					}
					top := 0
					for _, n := range merged[cc] {
						top = max(top, n)
					}
					var wantA ActionID
					if i := slices.IndexFunc(LearningOrder, func(a ActionID) bool { return merged[cc][a] == top }); top > 0 && i >= 0 {
						wantA = LearningOrder[i]
					}
					gotA, gotOK := sum.Best()
					bestA, bestOK := merged.Best(cc)
					if gotA != wantA || gotOK != (top > 0) || bestA != gotA || bestOK != gotOK {
						t.Fatalf("%v over %v: Tally says %v %v, merged Best %v %v, want %v", cc, tables, gotA, gotOK, bestA, bestOK, wantA)
					}
				}
			}
		}
	}
}

// tied returns r with every count cut to 1 or 2, so that sums tie often.
func tied(r Records) Records {
	out := Records{}
	for c, acts := range r {
		for a, n := range acts {
			out.Add(c, a, 1+n%2)
		}
	}
	return out
}

func TestAppendRecordsInsertionOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		r := randomRecords(rng)
		type row struct {
			c cause.Cause
			a ActionID
			n int
		}
		var rows []row
		for c, acts := range r {
			for a, n := range acts {
				rows = append(rows, row{c, a, n})
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		shuffled := Records{}
		for _, w := range rows {
			shuffled.Add(w.c, w.a, w.n)
		}
		for _, width := range []int{2, 4} {
			if !bytes.Equal(AppendRecords(nil, r, width), AppendRecords(nil, shuffled, width)) {
				t.Fatalf("width %d: encoding depends on insertion order for %v", width, r)
			}
		}
	}
}

// TestRecordsEncodingPinned pins both row widths to bytes recorded from the
// encoders this type replaced: the EF SEEDLog/upload format and the fleet
// model format, clamping and zero-count rows included.
func TestRecordsEncodingPinned(t *testing.T) {
	cases := []struct {
		r          Records
		rec, model string
	}{
		{Records{}, "", ""},
		{
			Records{cause.MM(9): {ActionA1: 3, ActionB1: 1}, cause.SM(27): {ActionA2: 2}},
			"01090100030109040001021b020002",
			"0109010000000301090400000001021b0200000002",
		},
		{
			Records{cause.SM(33): {ActionB3: 70000, ActionA1: 0}, cause.MM(0): {ActionB2: 5}, cause.MM(111): {ActionA3: 1, ActionB1: 65535}},
			"0100050005016f030001016f04ffff022106ffff",
			"01000500000005016f0300000001016f040000ffff02210600011170",
		},
	}
	for i, tc := range cases {
		if got := hex.EncodeToString(MarshalRecords(tc.r)); got != tc.rec {
			t.Errorf("table %d: 2-byte rows %s, want %s", i, got, tc.rec)
		}
		if got := hex.EncodeToString(AppendRecords(nil, tc.r, 4)); got != tc.model {
			t.Errorf("table %d: 4-byte rows %s, want %s", i, got, tc.model)
		}
	}
}

// FuzzParseRecords feeds arbitrary bytes to the record decoder at both row
// widths: the 2-byte rows arrive in every decrypted upload at the plugin
// and at seedfleetd, the 4-byte rows in model pulls and shard snapshots.
// It must never panic, and decode → encode must reach a fixed point.
func FuzzParseRecords(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(AppendRecords(nil, Records{
		cause.MM(150): {ActionA1: 3},
		cause.SM(161): {ActionB3: 9},
	}, 4), true)
	f.Add(MarshalRecords(Records{cause.SM(33): {ActionB3: 70000}, cause.MM(9): {ActionA2: 1}}), false)
	f.Add([]byte{2, 33, 6, 0xff, 0xff, 2, 33, 6, 0, 1}, false)
	f.Add([]byte{2, 33, 6, 0, 1, 2}, false) // a whole row, then a stray byte
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		width := 2
		if wide {
			width = 4
		}
		// AddRows is the one decoder: folding the blob into a table that
		// already holds rows equals decoding it and merging, and a blob it
		// refuses adds nothing.
		base := Records{cause.MM(150): {ActionA1: 3}, cause.SM(33): {ActionB3: 0xFFFF}}
		folded := base.Clone()
		rows, foldErr := folded.AddRows(data, width)
		r, err := ParseRecords(data, width)
		if (foldErr == nil) != (err == nil) {
			t.Fatalf("AddRows err=%v, ParseRecords err=%v", foldErr, err)
		}
		if err != nil {
			if !reflect.DeepEqual(folded, base) {
				t.Fatalf("refused blob %x changed the table: %v", data, folded)
			}
			return
		}
		merged := base.Clone()
		merged.Merge(r)
		if !reflect.DeepEqual(folded, merged) {
			t.Fatalf("folding %x gives %v, decode and merge %v", data, folded, merged)
		}
		if rows != len(data)/(3+width) {
			t.Fatalf("AddRows read %d rows of %d bytes", rows, len(data))
		}
		// Unsorted, duplicate, zero-count or clamped rows may legitimately
		// re-encode differently, so check the encode → decode → encode
		// fixed point.
		enc := AppendRecords(nil, r, width)
		r2, err := ParseRecords(enc, width)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(AppendRecords(nil, r2, width), enc) {
			t.Fatalf("encode not a fixed point for %x", data)
		}
		// On a canonical blob the rows AddRows reports equal the decoded
		// table's Rows(), so the fleet's record_rows reads the same whether
		// it counts the one or the other.
		if n, err := (Records{}).AddRows(enc, width); err != nil || n != r2.Rows() {
			t.Fatalf("canonical %x: AddRows read %d rows (err %v), its table has %d", enc, n, err, r2.Rows())
		}
	})
}
