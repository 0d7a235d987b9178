package cluster

import (
	"bytes"
	"fmt"
	"testing"
)

func threeNodes() []Node {
	return []Node{
		{ID: "n0", Addr: "127.0.0.1:7001"},
		{ID: "n1", Addr: "127.0.0.1:7002"},
		{ID: "n2", Addr: "127.0.0.1:7003"},
	}
}

// TestMapDeterministicAcrossInputOrder: the whole bootstrap story rests on
// every process computing the same ring from the same node set, whatever
// order the flag listed them in.
func TestMapDeterministicAcrossInputOrder(t *testing.T) {
	a := New(1, threeNodes())
	shuffled := []Node{threeNodes()[2], threeNodes()[0], threeNodes()[1]}
	b := New(1, shuffled)
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("marshal differs across input order")
	}
	for i := 0; i < 1000; i++ {
		imsi := fmt.Sprintf("310170%09d", i)
		if a.OwnerID(imsi) != b.OwnerID(imsi) {
			t.Fatalf("owner of %s differs", imsi)
		}
	}
}

func TestMapMarshalRoundTrip(t *testing.T) {
	a := New(7, threeNodes())
	b, err := Unmarshal(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != 7 || len(b.Nodes()) != 3 {
		t.Fatalf("round trip lost fields: %+v", b)
	}
	for i := 0; i < 1000; i++ {
		imsi := fmt.Sprintf("310170%09d", i)
		if a.OwnerID(imsi) != b.OwnerID(imsi) {
			t.Fatalf("owner of %s differs after round trip", imsi)
		}
	}
}

func TestMapUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		New(1, threeNodes()).Marshal()[:13], // truncated node entry
		append(New(1, threeNodes()).Marshal(), 0xFF),       // trailing byte
		{0, 0, 0, 0, 0, 0, 0, 1, 0, 0},                     // zero nodes
		append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1}, 0, 0), // empty id
		ringBomb(),         // 1 025 nodes, 65 600 ring points
		duplicateNodeIDs(), // sorted, but not strictly
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage map accepted", i)
		}
	}
}

// ringBomb is a well-formed map of one node more than a decoded map may
// carry: its ring would pass 1 << 16 points, one Sprintf apiece.
func ringBomb() []byte {
	const n = maxNodes + 1
	p := []byte{0, 0, 0, 0, 0, 0, 0, 1, n >> 8, n & 0xFF}
	for i := 0; i < n; i++ {
		p = append(p, 4)
		p = append(p, fmt.Sprintf("%04d", i)...)
		p = append(p, 2, 'a', 'a')
	}
	return p
}

// duplicateNodeIDs is a two-node map that names one node twice.
func duplicateNodeIDs() []byte {
	p := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 2}
	for i := 0; i < 2; i++ {
		p = append(p, 2, 'n', '0', 2, 'a', 'a')
	}
	return p
}

// TestConsistentHashingMovesFewKeys: removing one of three nodes must move
// only the removed node's share — every key owned by a surviving node
// stays put. That bounded movement is what the handoff protocol pays for.
func TestConsistentHashingMovesFewKeys(t *testing.T) {
	full := New(1, threeNodes())
	reduced := New(2, threeNodes()[:2])
	moved, total := 0, 5000
	for i := 0; i < total; i++ {
		imsi := fmt.Sprintf("310170%09d", i)
		was, now := full.OwnerID(imsi), reduced.OwnerID(imsi)
		if was != now {
			moved++
			if was != "n2" {
				t.Fatalf("%s moved from surviving node %s to %s", imsi, was, now)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved when a node left")
	}
	if frac := float64(moved) / float64(total); frac > 0.6 {
		t.Fatalf("removing 1 of 3 nodes moved %.0f%% of keys", frac*100)
	}
}

// TestOwnershipRoughlyBalanced guards the vnode count: no node should own
// a wildly disproportionate share.
func TestOwnershipRoughlyBalanced(t *testing.T) {
	m := New(1, threeNodes())
	counts := map[string]int{}
	const total = 9000
	for i := 0; i < total; i++ {
		counts[m.OwnerID(fmt.Sprintf("310170%09d", i))]++
	}
	for id, n := range counts {
		frac := float64(n) / float64(total)
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("node %s owns %.0f%% of keys: %v", id, frac*100, counts)
		}
	}
}

func TestParseNodeList(t *testing.T) {
	nodes, err := ParseNodeList("n1=127.0.0.1:1, n0=127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("parsed %d nodes", len(nodes))
	}
	for _, bad := range []string{"", "x", "=addr", "id=", "a=1,a=2"} {
		if _, err := ParseNodeList(bad); err == nil {
			t.Errorf("ParseNodeList(%q) accepted", bad)
		}
	}
}
