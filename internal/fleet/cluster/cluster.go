// Package cluster is the shard-map layer of the fleet aggregation tier:
// an epoch-versioned, consistently-hashed assignment of subscriber IMSIs
// to aggregator nodes. The map itself is pure data — every node and every
// client that builds a Map from the same node list computes the identical
// ring and therefore the identical owner for every IMSI, so bootstrap
// needs no coordination service: processes agree by construction, and
// later epochs propagate over the wire (TMap / TWrongShard frames carry
// Marshal bytes).
//
// Consistent hashing keeps rebalancing incremental: each node projects
// replicas virtual points onto a 64-bit ring, and an IMSI belongs to the
// first point clockwise of its hash. Adding or removing one node moves
// only ~1/N of the keyspace, which is what makes the two-phase
// kill-and-rebalance protocol (prepare/freeze → counter handoff → commit)
// affordable under load.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// replicas is the virtual-node count per node. 64 points per node keeps
// the ownership imbalance across a small cluster within a few percent
// while the ring stays tiny (N*64 points, binary-searched).
const replicas = 64

// Node is one aggregator process: a stable identity plus the address
// clients dial. Ownership is decided by ID only, so a node can restart on
// a new address (or behind a proxy) without moving any keys.
type Node struct {
	ID   string
	Addr string
}

// Map is one epoch of the cluster's shard assignment. Maps are immutable
// after construction; a rebalance builds a successor Map with a higher
// epoch.
type Map struct {
	Epoch uint64
	nodes []Node  // sorted by ID
	ring  []point // sorted by hash
}

type point struct {
	hash uint64
	node int // index into nodes
}

// New builds a Map. The node list is sorted by ID so that every process
// handed the same set builds the same ring regardless of input order.
func New(epoch uint64, nodes []Node) *Map {
	m := &Map{Epoch: epoch, nodes: append([]Node(nil), nodes...)}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].ID < m.nodes[j].ID })
	m.buildRing()
	return m
}

func (m *Map) buildRing() {
	m.ring = make([]point, 0, len(m.nodes)*replicas)
	for i, n := range m.nodes {
		for r := 0; r < replicas; r++ {
			m.ring = append(m.ring, point{hash: hash64(fmt.Sprintf("%s#%d", n.ID, r)), node: i})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool { return m.ring[i].hash < m.ring[j].hash })
}

// hash64 is FNV-1a with a murmur-style avalanche finalizer. Raw FNV of
// short near-sequential strings ("n0#17", "n0#18", …) barely disperses
// the high bits, which skews ring ownership badly; the finalizer restores
// uniformity without new dependencies.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Nodes returns the member list (sorted by ID). Callers must not mutate it.
func (m *Map) Nodes() []Node { return m.nodes }

// Node returns the member with the given ID.
func (m *Map) Node(id string) (Node, bool) {
	for _, n := range m.nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// Owner returns the node owning an IMSI: the first ring point clockwise
// of the IMSI's hash.
func (m *Map) Owner(imsi string) Node {
	return m.nodes[m.ownerIdx(imsi)]
}

// OwnerID returns the owning node's ID (the hot path for the per-request
// ownership check on the server).
func (m *Map) OwnerID(imsi string) string {
	return m.nodes[m.ownerIdx(imsi)].ID
}

func (m *Map) ownerIdx(imsi string) int {
	if len(m.ring) == 0 {
		panic("cluster: empty map")
	}
	h := hash64(imsi)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap around
	}
	return m.ring[i].node
}

// --- wire format ---------------------------------------------------------

// Maps serialize as:
//
//	epoch(8, BE) | n(2, BE) | n × (idLen(1) id addrLen(1) addr)
//
// with nodes in sorted-by-ID order, so equal maps produce equal bytes.

const maxNameLen = 255

// maxNodes bounds the members of a decoded map, and with them the ring it
// builds: a peer's map costs at most 1 << 16 points, whatever it carries.
const maxNodes = 1024

// Marshal encodes the map canonically.
func (m *Map) Marshal() []byte {
	out := binary.BigEndian.AppendUint64(nil, m.Epoch)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.nodes)))
	for _, n := range m.nodes {
		out = append(out, byte(len(n.ID)))
		out = append(out, n.ID...)
		out = append(out, byte(len(n.Addr)))
		out = append(out, n.Addr...)
	}
	return out
}

// Unmarshal decodes a marshaled map and rebuilds its ring.
func Unmarshal(p []byte) (*Map, error) {
	if len(p) < 10 {
		return nil, errors.New("cluster: map payload too short")
	}
	m := &Map{Epoch: binary.BigEndian.Uint64(p[0:8])}
	n := int(binary.BigEndian.Uint16(p[8:10]))
	if n == 0 {
		return nil, errors.New("cluster: map has no nodes")
	}
	if n > maxNodes {
		return nil, fmt.Errorf("cluster: %d nodes exceeds %d", n, maxNodes)
	}
	p = p[10:]
	for i := 0; i < n; i++ {
		id, rest, err := takeString(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d id: %w", i, err)
		}
		addr, rest, err := takeString(rest)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d addr: %w", i, err)
		}
		m.nodes = append(m.nodes, Node{ID: id, Addr: addr})
		p = rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after map", len(p))
	}
	for i := 1; i < len(m.nodes); i++ {
		if m.nodes[i-1].ID >= m.nodes[i].ID {
			return nil, errors.New("cluster: map node IDs not strictly increasing")
		}
	}
	m.buildRing()
	return m, nil
}

func takeString(p []byte) (string, []byte, error) {
	if len(p) < 1 {
		return "", nil, errors.New("missing length byte")
	}
	n := int(p[0])
	if n == 0 {
		return "", nil, errors.New("empty string")
	}
	if len(p) < 1+n {
		return "", nil, fmt.Errorf("truncated: need %d bytes, have %d", n, len(p)-1)
	}
	return string(p[1 : 1+n]), p[1+n:], nil
}

// ParseNodeList parses the "-cluster" flag syntax: "id=addr,id=addr,…".
func ParseNodeList(spec string) ([]Node, error) {
	var nodes []Node
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad node %q (want id=host:port)", part)
		}
		if len(id) > maxNameLen || len(addr) > maxNameLen {
			return nil, fmt.Errorf("cluster: node %q: id/addr too long", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		seen[id] = true
		nodes = append(nodes, Node{ID: id, Addr: addr})
	}
	if len(nodes) == 0 {
		return nil, errors.New("cluster: empty node list")
	}
	return nodes, nil
}
