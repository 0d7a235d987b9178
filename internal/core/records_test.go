package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
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
	}
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
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		width := 2
		if wide {
			width = 4
		}
		r, err := ParseRecords(data, width)
		if err != nil {
			return
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
	})
}
