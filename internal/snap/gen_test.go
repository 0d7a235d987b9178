package snap

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// The graphs TestRestoreUndoesGeneratedMutations builds: every kind of field
// the walker handles, unexported throughout, with shared pointees, cycles,
// aliasing slices, pointer-valued maps, boxed values behind interfaces, one
// Skipper and one Snapshotter (which exposes a node only through
// SnapshotRoots).

type gnode struct {
	id     int
	name   string
	next   *gnode
	kids   []*gnode
	vals   []int
	view   []int // a shorter view of some node's vals backing array
	arr    [3]*gnode
	grid   [4]int
	tags   map[string]*gnode
	counts map[int]int
	box    any // nil, an int, a string, a *gnode or a gbox
	fn     func() int
	skip   *gskip
	sn     *gsnap
	inner  ginner
}

type ginner struct {
	weight float64
	label  string
	peer   *gnode
	bytes  []byte
}

// gbox is a struct value that reaches a node, stored in an interface.
type gbox struct {
	p *gnode
	k int
}

type gskip struct{ n int }

func (*gskip) SnapSkip() {}

type gsnap struct {
	n     int
	log   []int
	extra *gnode
}

type gsnapState struct {
	n   int
	log []int
}

func (g *gsnap) SnapshotState() any { return gsnapState{g.n, append([]int(nil), g.log...)} }
func (g *gsnap) RestoreState(s any) {
	st := s.(gsnapState)
	g.n, g.log = st.n, append(g.log[:0], st.log...)
}
func (g *gsnap) SnapshotRoots(visit func(any)) { visit(g.extra) }

// ggraph holds a graph's nodes, so that every node stays reachable however
// the mutations rewire them.
type ggraph struct{ nodes []*gnode }

// genGraph builds a graph of n nodes (plus the Snapshotter's extra node)
// and returns it and every node.
func genGraph(rng *rand.Rand, n int) (*ggraph, []*gnode) {
	nodes := make([]*gnode, n)
	for i := range nodes {
		nodes[i] = &gnode{id: i, name: fmt.Sprint("n", i)}
	}
	pick := func() *gnode {
		if rng.Intn(5) == 0 {
			return nil
		}
		return nodes[rng.Intn(n)]
	}
	skip := &gskip{n: 7}
	sn := &gsnap{n: 1, log: []int{1}, extra: &gnode{id: -1, name: "extra", vals: []int{5, 6}}}
	for i, nd := range nodes {
		// A private node is reachable only through the interface or map
		// that holds it.
		private := func() *gnode { return &gnode{id: 1000 + i, vals: []int{i}} }
		nd.next = pick()
		for range rng.Intn(4) {
			nd.kids = append(nd.kids, pick())
		}
		if rng.Intn(3) > 0 {
			nd.vals = make([]int, 1+rng.Intn(4), 6)
			for j := range nd.vals {
				nd.vals[j] = rng.Intn(100)
			}
		}
		for j := range nd.arr {
			nd.arr[j] = pick()
		}
		for j := range nd.grid {
			nd.grid[j] = rng.Intn(100)
		}
		if rng.Intn(2) == 0 {
			nd.tags = map[string]*gnode{}
			for k := range rng.Intn(4) {
				nd.tags[fmt.Sprint("t", k)] = pick()
			}
			if rng.Intn(2) == 0 {
				nd.tags["p"] = private()
			}
		}
		if rng.Intn(2) == 0 {
			nd.counts = map[int]int{rng.Intn(10): rng.Intn(10)}
		}
		switch rng.Intn(7) {
		case 1:
			nd.box = rng.Intn(100)
		case 2:
			nd.box = fmt.Sprint("s", i)
		case 3:
			nd.box = pick()
		case 4:
			nd.box = gbox{p: pick(), k: i}
		case 5:
			nd.box = private()
		case 6:
			nd.box = gbox{p: private(), k: i}
		}
		if rng.Intn(2) == 0 {
			nd.fn = func() int { return nd.id * 10 }
		}
		if rng.Intn(3) == 0 {
			nd.skip = skip
		}
		if rng.Intn(3) == 0 {
			nd.sn = sn
		}
		nd.inner = ginner{weight: rng.Float64(), label: fmt.Sprint("l", i), peer: pick()}
		if rng.Intn(2) == 0 {
			nd.inner.bytes = []byte{byte(i), 1, 2}
		}
	}
	// Two slices of different lengths over one backing array, within a
	// node and across nodes.
	for _, nd := range nodes {
		if src := nodes[rng.Intn(n)]; len(src.vals) > 1 {
			nd.view = src.vals[:rng.Intn(len(src.vals))]
		}
	}
	nodes[0].sn = sn
	return &ggraph{nodes}, append(nodes, sn.extra)
}

// mutate applies k random mutations to the graph and returns how many of
// them wrote into the Skipper, which Restore must leave alone.
func mutate(rng *rand.Rand, nodes []*gnode, k int) (skipped int) {
	pick := func() *gnode { return nodes[rng.Intn(len(nodes))] }
	for range k {
		nd := pick()
		switch rng.Intn(18) {
		case 0:
			nd.id += 1 + rng.Intn(5)
		case 1:
			nd.name += "!"
		case 2:
			nd.next = pick()
		case 3:
			nd.next = &gnode{id: 1000}
		case 4:
			nd.vals = append(nd.vals, rng.Intn(100)) // within capacity or beyond it
		case 5:
			nd.view = append(nd.view, -1) // may write into a longer view's elements
		case 6:
			if len(nd.vals) > 0 {
				nd.vals[rng.Intn(len(nd.vals))] = -rng.Intn(100)
			}
		case 7:
			nd.kids = append(nd.kids, pick())
			if len(nd.kids) > 1 {
				nd.kids[0] = nil
			}
		case 8:
			nd.arr[rng.Intn(3)] = pick()
			nd.grid[rng.Intn(4)] = -1
		case 9:
			if nd.tags == nil {
				nd.tags = map[string]*gnode{}
			}
			nd.tags[fmt.Sprint("new", rng.Intn(3))] = pick()
			for key := range nd.tags {
				delete(nd.tags, key)
				break
			}
		case 10:
			if nd.counts != nil {
				nd.counts[rng.Intn(10)]++
			}
		case 11:
			nd.box = pick()
		case 12:
			nd.box = gbox{p: pick(), k: -1}
		case 13:
			nd.fn = func() int { return -1 }
		case 14:
			if nd.sn != nil {
				nd.sn.n++
				nd.sn.log = append(nd.sn.log, nd.sn.n)
				nd.sn.extra.vals[0]++
			}
		case 15:
			nd.inner.weight++
			nd.inner.peer = pick()
			if len(nd.inner.bytes) > 0 {
				nd.inner.bytes[0]++
			}
		case 16:
			if nd.skip != nil {
				nd.skip.n++
				skipped++
			}
		case 17: // through interfaces and map values
			switch b := nd.box.(type) {
			case *gnode:
				if b != nil {
					b.grid[0]++
				}
			case gbox:
				if b.p != nil {
					b.p.vals = append(b.p.vals, 1)
				}
			}
			for _, v := range nd.tags {
				if v != nil {
					v.grid[1]++
				}
			}
		}
	}
	return skipped
}

// cloneGraph deep-copies the graph, func fields left out
// (reflect.DeepEqual holds no two non-nil funcs equal; identity compares
// what they return) and the Skipper shared, not copied.
func cloneGraph(g *ggraph) *ggraph {
	memo := map[*gnode]*gnode{}
	var c func(n *gnode) *gnode
	c = func(n *gnode) *gnode {
		if n == nil {
			return nil
		}
		if m, ok := memo[n]; ok {
			return m
		}
		m := new(gnode)
		memo[n] = m
		*m = *n
		m.fn = nil
		m.next = c(n.next)
		m.kids = nil
		if n.kids != nil {
			m.kids = make([]*gnode, len(n.kids))
			for i, k := range n.kids {
				m.kids[i] = c(k)
			}
		}
		m.vals, m.view = cloneInts(n.vals), cloneInts(n.view)
		for i := range n.arr {
			m.arr[i] = c(n.arr[i])
		}
		if n.tags != nil {
			m.tags = map[string]*gnode{}
			for k, v := range n.tags {
				m.tags[k] = c(v)
			}
		}
		if n.counts != nil {
			m.counts = map[int]int{}
			for k, v := range n.counts {
				m.counts[k] = v
			}
		}
		switch b := n.box.(type) {
		case *gnode:
			m.box = c(b)
		case gbox:
			m.box = gbox{c(b.p), b.k}
		}
		if n.sn != nil {
			m.sn = &gsnap{n: n.sn.n, log: cloneInts(n.sn.log), extra: c(n.sn.extra)}
		}
		m.inner.peer = c(n.inner.peer)
		if n.inner.bytes != nil {
			m.inner.bytes = append([]byte{}, n.inner.bytes...)
		}
		return m
	}
	out := &ggraph{make([]*gnode, len(g.nodes))}
	for i, n := range g.nodes {
		out.nodes[i] = c(n)
	}
	return out
}

func cloneInts(s []int) []int {
	if s == nil {
		return nil
	}
	return append([]int{}, s...)
}

// identity lists every pointer an original node holds — pointer fields,
// the backing arrays of its slices, the pointees of its maps and
// interfaces — and what its func returns, so that a Restore that brought
// back equal values at other addresses fails.
func identity(nodes []*gnode) []any {
	var out []any
	for _, n := range nodes {
		out = append(out, n.next, unsafe.SliceData(n.kids), unsafe.SliceData(n.vals), unsafe.SliceData(n.view),
			n.arr, n.skip, n.sn, n.inner.peer, unsafe.SliceData(n.inner.bytes), n.box, len(n.kids))
		for _, k := range n.kids {
			out = append(out, k)
		}
		for _, k := range []string{"t0", "t1", "t2", "p"} {
			out = append(out, n.tags[k])
		}
		if n.fn != nil {
			out = append(out, n.fn())
		}
	}
	return out
}

func TestRestoreUndoesGeneratedMutations(t *testing.T) {
	const graphs = 240
	for seed := range graphs {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + rng.Intn(12)
		if seed%40 == 0 {
			n = 400 // more regions than the dedupe set starts with
		}
		g, nodes := genGraph(rng, n)
		skipN := 7
		want, wantIDs := cloneGraph(g), identity(nodes)
		s := Take(g)
		for round := range 3 {
			skipN += mutate(rng, nodes, 1+rng.Intn(3*n))
			s.Restore()
			if got := cloneGraph(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph seed %d (%d nodes), round %d: restored graph differs from the one taken", seed, n, round)
			}
			gotIDs := identity(nodes)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("graph seed %d (%d nodes), round %d: %d identities after Restore, %d at Take", seed, n, round, len(gotIDs), len(wantIDs))
			}
			for i := range wantIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("graph seed %d (%d nodes), round %d: identity %d is %v after Restore, %v at Take", seed, n, round, i, gotIDs[i], wantIDs[i])
				}
			}
			for _, nd := range nodes {
				if nd.skip != nil && nd.skip.n != skipN {
					t.Fatalf("graph seed %d, round %d: the Skipper reads %d, want %d: Restore wrote it", seed, round, nd.skip.n, skipN)
				}
			}
		}
	}
}

// cnode is used by TestConcurrentTakes alone, so that its plans are
// compiled while the test's goroutines race to take snapshots of it.
type cnode struct {
	next *cnode
	vals []int
	m    map[int]*cnode
	box  any
}

// TestConcurrentTakes runs Takes and Restores of separate graphs from
// several goroutines at once, as a pool's workers do with their
// prototypes: the plans they share are compiled once and only read after.
func TestConcurrentTakes(t *testing.T) {
	const workers = 4
	errs := make(chan error, workers)
	for w := range workers {
		go func() {
			a := &cnode{vals: []int{w}, m: map[int]*cnode{}}
			b := &cnode{next: a, box: a, vals: a.vals[:1]}
			a.next, a.m[1] = b, b
			s := Take(a)
			for i := range 100 {
				b.vals = append(b.vals, i)
				a.vals[0] = -1
				a.m[2] = a
				b.box = nil
				s.Restore()
				if a.vals[0] != w || len(b.vals) != 1 || len(a.m) != 1 || b.box != any(a) {
					errs <- fmt.Errorf("worker %d, round %d: Restore left %+v, %+v", w, i, *a, *b)
					return
				}
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
