package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/fleet/cluster"
	"github.com/seed5g/seed/internal/metrics"
)

// ClusterClientConfig parameterizes the shard-map-aware client.
type ClusterClientConfig struct {
	// Nodes is the bootstrap membership. It builds the ring every server
	// computed from the same members, so the client routes correctly
	// before ever talking to anyone. The bootstrap map is epoch 0, older
	// than any a server holds, so the first redirect's map is adopted.
	Nodes []cluster.Node
	// Client is the per-node connection template; Addr is filled per node.
	Client ClientConfig
}

// maxAttempts caps routing attempts per request: each attempt is a full
// per-node Do cycle (which has its own transport retries), and a new
// attempt happens only after a redirect or node failure.
const maxAttempts = 6

// ClusterClient routes per-IMSI requests to their owning node under an
// epoch-versioned shard map, follows TWrongShard redirects (adopting the
// newer map they carry), fails over across map epochs, and merges
// cross-node models. A single server is the one-node case: it holds no
// map, so it never redirects, and a lone node has no peer to pull a map
// from. Safe for concurrent use.
type ClusterClient struct {
	cfg ClusterClientConfig

	mu      sync.RWMutex
	map_    *cluster.Map
	clients map[string]*clientSlot // node ID → slot

	lat opLatencies // whole routed exchanges
}

type clientSlot struct {
	addr string
	cl   *Client
}

// NewClusterClient builds the bootstrap map and an empty client pool.
func NewClusterClient(cfg ClusterClientConfig) (*ClusterClient, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: cluster client needs bootstrap nodes")
	}
	return &ClusterClient{
		cfg:     cfg,
		map_:    cluster.New(0, cfg.Nodes),
		clients: make(map[string]*clientSlot),
	}, nil
}

// Map returns the currently adopted shard map.
func (cc *ClusterClient) Map() *cluster.Map {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.map_
}

// adopt installs m if it is newer than the adopted map.
func (cc *ClusterClient) adopt(m *cluster.Map) {
	cc.mu.Lock()
	if m.Epoch > cc.map_.Epoch {
		cc.map_ = m
	}
	cc.mu.Unlock()
}

// client returns (creating if needed) the client for a node. A node
// that moved to a new address gets a fresh client; the stale one is closed.
func (cc *ClusterClient) client(n cluster.Node) *Client {
	cc.mu.RLock()
	slot := cc.clients[n.ID]
	cc.mu.RUnlock()
	if slot != nil && slot.addr == n.Addr {
		return slot.cl
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if slot = cc.clients[n.ID]; slot != nil && slot.addr == n.Addr {
		return slot.cl
	}
	if slot != nil {
		slot.cl.Close()
	}
	cfg := cc.cfg.Client
	cfg.Addr = n.Addr
	cl := NewClient(cfg)
	cc.clients[n.ID] = &clientSlot{addr: n.Addr, cl: cl}
	return cl
}

// Close tears down every per-node client.
func (cc *ClusterClient) Close() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, slot := range cc.clients {
		slot.cl.Close()
	}
	cc.clients = map[string]*clientSlot{}
}

// DoIMSI routes one per-subscriber request to its owner under the adopted
// map and follows redirects: a TWrongShard reply carries the answering
// node's map, which is adopted (if newer) before retrying; a dead node
// triggers a map refresh from the surviving members and another attempt.
// The latency of the whole exchange, redirects and failovers included, is
// recorded under op.
func (cc *ClusterClient) DoIMSI(ctx context.Context, op, imsi string, req Frame) (Frame, error) {
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Frame{}, err
		}
		m := cc.Map()
		owner := m.Owner(imsi)
		resp, err := cc.client(owner).DoCtx(ctx, op, req)
		if err != nil {
			lastErr = fmt.Errorf("node %s (%s): %w", owner.ID, owner.Addr, err)
			if ctx.Err() != nil {
				break
			}
			cc.refreshMap(ctx, owner.ID)
			continue
		}
		if resp.Type == TWrongShard {
			newer, perr := cluster.Unmarshal(resp.Payload)
			if perr != nil {
				return Frame{}, fmt.Errorf("fleet: bad map in redirect from %s: %w", owner.ID, perr)
			}
			cc.adopt(newer)
			lastErr = fmt.Errorf("node %s redirected (its epoch %d, ours was %d)", owner.ID, newer.Epoch, m.Epoch)
			continue
		}
		cc.lat.record(op, time.Since(start))
		return resp, nil
	}
	return Frame{}, fmt.Errorf("fleet: %s for %s failed after %d cluster attempts: %w", op, imsi, maxAttempts, lastErr)
}

// refreshMap polls every known node except skipID for its current map and
// adopts the newest. Used after a node failure: if a rebalance routed
// around the dead node, the survivors know the new epoch.
func (cc *ClusterClient) refreshMap(ctx context.Context, skipID string) {
	for _, n := range cc.Map().Nodes() {
		if n.ID == skipID {
			continue
		}
		resp, err := cc.client(n).DoCtx(ctx, "map", Frame{Type: TMapPull})
		if err != nil || resp.Type != TMap {
			continue
		}
		if m, err := cluster.Unmarshal(resp.Payload); err == nil {
			cc.adopt(m)
		}
	}
}

// --- request surface -----------------------------------------------------

// UploadRecords ships a sealed record blob to the IMSI's owning node.
func (cc *ClusterClient) UploadRecords(ctx context.Context, imsi string, sealed []byte) error {
	_, err := cc.DoIMSI(ctx, "upload", imsi, Frame{Type: TUpload, Payload: AppendSealedPayload(nil, imsi, sealed)})
	return err
}

// Report ships a sealed failure report to the IMSI's owning node.
func (cc *ClusterClient) Report(ctx context.Context, imsi string, sealed []byte) error {
	_, err := cc.DoIMSI(ctx, "report", imsi, Frame{Type: TReport, Payload: AppendSealedPayload(nil, imsi, sealed)})
	return err
}

// Query asks the IMSI's owning node for a sealed suggestion.
func (cc *ClusterClient) Query(ctx context.Context, imsi string, c cause.Cause) ([]byte, error) {
	resp, err := cc.DoIMSI(ctx, "query", imsi, Frame{Type: TQuery, Payload: AppendQueryPayload(nil, imsi, c)})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// FetchClusterModel pulls each member's model and merges them into the
// cluster aggregate. Folds stay on the node where they happened (only
// envelope counters move on rebalance), so the cluster model is by
// definition this cross-node merge; the canonical sorted serialization
// makes the result independent of poll order.
func (cc *ClusterClient) FetchClusterModel(ctx context.Context) ([]byte, error) {
	merged := core.Records{}
	for _, n := range cc.Map().Nodes() {
		resp, err := cc.client(n).DoCtx(ctx, "model", Frame{Type: TModelPull})
		if err != nil {
			return nil, fmt.Errorf("fleet: model pull from %s: %w", n.ID, err)
		}
		m, err := core.ParseRecords(resp.Payload, 4)
		if err != nil {
			return nil, fmt.Errorf("fleet: model from %s: %w", n.ID, err)
		}
		merged.Merge(m)
	}
	return MarshalModel(merged), nil
}

// FetchStatsAll pulls every member's counters, keyed by node ID. Nodes
// that cannot be reached are reported in errs rather than failing the
// whole sweep.
func (cc *ClusterClient) FetchStatsAll(ctx context.Context) (map[string]ServerStats, map[string]error) {
	out := make(map[string]ServerStats)
	errs := make(map[string]error)
	for _, n := range cc.Map().Nodes() {
		st, err := cc.client(n).fetchStats(ctx)
		if err != nil {
			errs[n.ID] = err
			continue
		}
		out[n.ID] = st
	}
	return out, errs
}

// Latency returns the series of whole routed exchanges for an op ("upload",
// "report", "query") — what a device experiences across redirects,
// failovers and backoff waits — or nil when the op never completed. The
// series is shared: callers must not mutate it concurrently with
// in-flight requests.
func (cc *ClusterClient) Latency(op string) *metrics.Series { return cc.lat.series(op) }

// opLatencies holds one latency series per op name.
type opLatencies struct {
	mu sync.Mutex
	m  map[string]*metrics.Series
}

func (l *opLatencies) record(op string, d time.Duration) {
	l.mu.Lock()
	s := l.m[op]
	if s == nil {
		if l.m == nil {
			l.m = make(map[string]*metrics.Series)
		}
		s = metrics.NewSeries()
		l.m[op] = s
	}
	s.Add(d)
	l.mu.Unlock()
}

func (l *opLatencies) series(op string) *metrics.Series {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[op]
}

// sum adds up one counter over the per-node clients.
func (cc *ClusterClient) sum(counter func(*Client) uint64) (n uint64) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	for _, slot := range cc.clients {
		n += counter(slot.cl)
	}
	return n
}

// Retries, Redials, Frames and Writes are the per-node clients' counters
// of the same names, summed.
func (cc *ClusterClient) Retries() uint64 { return cc.sum((*Client).Retries) }
func (cc *ClusterClient) Redials() uint64 { return cc.sum((*Client).Redials) }
func (cc *ClusterClient) Frames() uint64  { return cc.sum((*Client).Frames) }
func (cc *ClusterClient) Writes() uint64  { return cc.sum((*Client).Writes) }

// --- rebalance controller ------------------------------------------------

// Rebalance drives the two-phase shard-map change to newMap:
//
//  1. prepare: every node of old ∪ new stages newMap — moved-out IMSIs
//     freeze (TRetryAfter to clients) and their envelope counters come back;
//  2. install: each moved subscriber's counters land on its new owner,
//     journaled before the ack, so dedup survives even a crash right after;
//  3. commit: every node activates newMap (idempotent per epoch).
//
// The controller (an operator tool, the campaign tests) drives it;
// nodes never talk to each other. If the controller dies mid-flight, the
// frozen epoch never commits and a rerun with the same newMap is safe:
// prepare re-collects, install is max-semantics, commit acks repeats.
func (cc *ClusterClient) Rebalance(ctx context.Context, newMap *cluster.Map) error {
	old := cc.Map()
	union := make(map[string]cluster.Node)
	for _, n := range old.Nodes() {
		union[n.ID] = n
	}
	for _, n := range newMap.Nodes() {
		union[n.ID] = n
	}
	prepPayload := newMap.Marshal()

	// Phase 1: prepare everywhere, collecting moved-out counter tables.
	var moved []CounterEntry
	for _, n := range union {
		resp, err := cc.client(n).DoCtx(ctx, "prepare", Frame{Type: TMapPrepare, Payload: prepPayload})
		if err != nil {
			return fmt.Errorf("fleet: prepare on %s: %w", n.ID, err)
		}
		if resp.Type != TPrepared {
			return fmt.Errorf("fleet: prepare on %s answered %v", n.ID, resp.Type)
		}
		part, err := ParseCounterTable(resp.Payload)
		if err != nil {
			return fmt.Errorf("fleet: prepare table from %s: %w", n.ID, err)
		}
		moved = append(moved, part...)
	}

	// Phase 2: install each moved subscriber's counters on its new owner.
	byOwner := make(map[string][]CounterEntry)
	for _, e := range moved {
		byOwner[newMap.OwnerID(e.IMSI)] = append(byOwner[newMap.OwnerID(e.IMSI)], e)
	}
	for id, entries := range byOwner {
		n, ok := newMap.Node(id)
		if !ok {
			return fmt.Errorf("fleet: install target %s not in new map", id)
		}
		resp, err := cc.client(n).DoCtx(ctx, "install", Frame{Type: TCounterInstall, Payload: AppendCounterTable(nil, entries)})
		if err != nil {
			return fmt.Errorf("fleet: install on %s: %w", id, err)
		}
		if resp.Type != TAck {
			return fmt.Errorf("fleet: install on %s answered %v", id, resp.Type)
		}
	}

	// Phase 3: commit everywhere, then adopt locally.
	commitPayload := EpochPayload(newMap.Epoch)
	for _, n := range union {
		resp, err := cc.client(n).DoCtx(ctx, "commit", Frame{Type: TMapCommit, Payload: commitPayload})
		if err != nil {
			return fmt.Errorf("fleet: commit on %s: %w", n.ID, err)
		}
		if resp.Type != TAck {
			return fmt.Errorf("fleet: commit on %s answered %v", n.ID, resp.Type)
		}
	}
	cc.adopt(newMap)
	return nil
}
