package netemu

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/seed5g/seed/internal/radio"
	"github.com/seed5g/seed/internal/sched"
)

func TestLinkReorderLetsLaterSendsOvertake(t *testing.T) {
	k := sched.New(7)
	var got []int
	l := NewLink(k, "t", 10*time.Millisecond, func(m any) { got = append(got, m.(int)) })
	l.Reorder = 1.0
	l.ReorderSpan = 100 * time.Millisecond
	for i := 0; i < 20; i++ {
		l.Send(i)
	}
	k.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	if sort.IntsAreSorted(got) {
		t.Fatal("20 sends at reorder=1.0 were still delivered strictly FIFO")
	}
	re, du := l.AdvStats()
	if re != 20 || du != 0 {
		t.Fatalf("AdvStats = (%d,%d), want (20,0)", re, du)
	}
}

func TestLinkDupDeliversEachMessageTwice(t *testing.T) {
	k := sched.New(9)
	counts := map[int]int{}
	l := NewLink(k, "t", time.Millisecond, func(m any) { counts[m.(int)]++ })
	l.Dup = 1.0
	for i := 0; i < 5; i++ {
		l.Send(i)
	}
	k.Run()
	for i := 0; i < 5; i++ {
		if counts[i] != 2 {
			t.Fatalf("message %d delivered %d times, want 2", i, counts[i])
		}
	}
	if _, du := l.AdvStats(); du != 5 {
		t.Fatalf("duplicated = %d, want 5", du)
	}
}

// TestLinkAdversarialDeterminism: with a fixed kernel seed, the combined
// reorder+duplicate pattern (and hence the delivery sequence and counters)
// is bit-identical across runs.
func TestLinkAdversarialDeterminism(t *testing.T) {
	run := func() ([]int, [2]int) {
		k := sched.New(42)
		var got []int
		l := NewLink(k, "t", 5*time.Millisecond, func(m any) { got = append(got, m.(int)) })
		l.Jitter = 2 * time.Millisecond
		l.Loss = 0.05
		l.Reorder = 0.3
		l.ReorderSpan = 40 * time.Millisecond
		l.Dup = 0.2
		for i := 1; i <= 200; i++ {
			l.Send(i)
		}
		k.Run()
		re, du := l.AdvStats()
		return got, [2]int{re, du}
	}
	seq1, stats1 := run()
	seq2, stats2 := run()
	if !reflect.DeepEqual(seq1, seq2) {
		t.Fatal("same seed produced different delivery sequences")
	}
	if stats1 != stats2 {
		t.Fatalf("same seed produced different AdvStats: %v vs %v", stats1, stats2)
	}
	if stats1[0] == 0 || stats1[1] == 0 {
		t.Fatalf("expected all adversarial events to occur over 200 sends, got %v", stats1)
	}
}

func TestDuplexAdversarialSettersApplyBothDirections(t *testing.T) {
	k := sched.New(1)
	d := NewDuplex(k, "t", time.Millisecond, func(any) {}, func(any) {})
	d.SetReorder(0.25, 7*time.Millisecond)
	d.SetDup(0.5)
	for _, l := range []*Link{d.A2B, d.B2A} {
		if l.Reorder != 0.25 || l.ReorderSpan != 7*time.Millisecond {
			t.Fatalf("%s: reorder knobs not applied", l.Name())
		}
		if l.Dup != 0.5 {
			t.Fatalf("%s: dup knob not applied", l.Name())
		}
	}
}

type ownedMsg struct{ n int }

func (m *ownedMsg) CloneMsg() any { c := *m; return &c }

// TestLinkDupClonesOwnedMessages: a message whose receiver takes ownership
// (a pooled radio frame) must arrive as two distinct objects, so the first
// receiver recycling its copy cannot corrupt the duplicate.
func TestLinkDupClonesOwnedMessages(t *testing.T) {
	k := sched.New(9)
	var got []*ownedMsg
	l := NewLink(k, "t", time.Millisecond, func(m any) {
		f := m.(*ownedMsg)
		got = append(got, f)
		if f.n != 7 {
			t.Errorf("delivery %d carries %d, want 7", len(got), f.n)
		}
		f.n = 0 // the receiver owns the frame: recycling clears it
	})
	l.Dup = 1.0
	l.Send(&ownedMsg{n: 7})
	k.Run()
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("want two deliveries of distinct objects, got %v", got)
	}
}

// TestLinkCarriesPooledNASFrames sends pooled signalling frames through a
// link that duplicates and reorders, with one pool circulating between
// sender and receiver the way frames circulate between a modem and the
// AMF. No frame may reach a receiver while it sits in the pool (that would
// be a frame released twice, or a duplicate sharing its original), and
// every delivery must still carry the content it was sent with.
func TestLinkCarriesPooledNASFrames(t *testing.T) {
	k := sched.New(11)
	var pool radio.NASPool
	inPool := map[*radio.NAS]bool{}
	put := func(f *radio.NAS) {
		if inPool[f] {
			t.Fatalf("frame %p released twice", f)
		}
		inPool[f] = true
		pool.Put(f)
	}
	get := func() *radio.NAS {
		f := pool.Get("ue")
		delete(inPool, f)
		return f
	}

	const sends = 300
	deliveries := map[byte]int{}
	var l *Link
	l = NewLink(k, "t", 5*time.Millisecond, func(m any) {
		f, ok := m.(*radio.NAS)
		if !ok {
			t.Fatalf("receiver got %T, want *radio.NAS", m)
		}
		if inPool[f] {
			t.Fatalf("frame %p delivered while it sits in the pool", f)
		}
		if len(f.Bytes) != 8 {
			t.Fatalf("frame carries %d bytes, want 8", len(f.Bytes))
		}
		seq := f.Bytes[0]
		for _, b := range f.Bytes[1:] {
			if b != seq {
				t.Fatalf("frame content overwritten in flight: % x", f.Bytes)
			}
		}
		deliveries[seq]++
		put(f)
	})
	l.Reorder, l.ReorderSpan = 0.3, 40*time.Millisecond
	l.Dup = 0.3
	for i := 0; i < sends; i++ {
		f := get()
		for j := 0; j < 8; j++ {
			f.Bytes = append(f.Bytes, byte(i))
		}
		if !l.Send(f) {
			put(f)
		}
		k.RunFor(time.Millisecond) // deliveries interleave with sends
	}
	k.Run()

	re, du := l.AdvStats()
	if re == 0 || du == 0 {
		t.Fatalf("adversarial knobs never fired: reordered=%d duplicated=%d", re, du)
	}
	total := 0
	for seq, n := range deliveries {
		// byte(i) wraps at 256, so a value is sent at most twice and
		// delivered at most four times.
		if n > 4 {
			t.Fatalf("content %#x delivered %d times", seq, n)
		}
		total += n
	}
	if total != sends+du {
		t.Fatalf("%d deliveries, want %d sends + %d duplicates", total, sends, du)
	}
}
