package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/fleet/cluster"
	"github.com/seed5g/seed/internal/report"
)

// testCluster is an in-process N-node fleet cluster with per-node durable
// journals, supporting kill + restart on the same address (the in-process
// stand-in for SIGKILLing a seedfleetd).
type testCluster struct {
	t       *testing.T
	root    string
	servers map[string]*Server
	addrs   map[string]string // where each node listens
	front   map[string]string // where clients dial a node behind a forwarder
	epoch   uint64
}

func startCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		root:    t.TempDir(),
		servers: make(map[string]*Server),
		addrs:   make(map[string]string),
		epoch:   1,
	}
	// Two passes: bind everyone first (addresses are only known after
	// Start), then install the map covering all of them.
	var nodes []cluster.Node
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		srv := tc.boot(id, "127.0.0.1:0", nil)
		tc.servers[id] = srv
		tc.addrs[id] = srv.Addr().String()
		nodes = append(nodes, cluster.Node{ID: id, Addr: tc.addrs[id]})
	}
	m := cluster.New(tc.epoch, nodes)
	for _, srv := range tc.servers {
		srv.SetMap(m)
	}
	t.Cleanup(func() {
		for _, srv := range tc.servers {
			srv.Kill()
		}
	})
	return tc
}

func (tc *testCluster) boot(id, addr string, m *cluster.Map) *Server {
	tc.t.Helper()
	srv := NewServer(ServerConfig{
		Addr:       addr,
		Shards:     2,
		NodeID:     id,
		Map:        m,
		JournalDir: filepath.Join(tc.root, id),
		Logf:       func(string, ...any) {},
	})
	if err := srv.Start(); err != nil {
		tc.t.Fatal(err)
	}
	return srv
}

func (tc *testCluster) nodes() []cluster.Node {
	var nodes []cluster.Node
	for id, addr := range tc.addrs {
		if f, ok := tc.front[id]; ok {
			addr = f
		}
		nodes = append(nodes, cluster.Node{ID: id, Addr: addr})
	}
	return nodes
}

func (tc *testCluster) client() *ClusterClient {
	tc.t.Helper()
	cc, err := NewClusterClient(ClusterClientConfig{Nodes: tc.nodes(), Client: ClientConfig{Conns: 2}})
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(cc.Close)
	return cc
}

// kill hard-stops a node, keeping its journal directory and address.
func (tc *testCluster) kill(id string) {
	tc.servers[id].Kill()
	delete(tc.servers, id)
}

// restart boots a killed node on its old address over its old journals,
// re-installing the map epoch the cluster currently runs.
func (tc *testCluster) restart(id string, m *cluster.Map) {
	srv := tc.boot(id, tc.addrs[id], nil)
	srv.SetMap(m)
	tc.servers[id] = srv
}

// TestClusterRoutingAndMergedModel uploads across a 3-node cluster and
// checks the cross-node merged model is byte-identical to the sequential
// baseline, with every upload landing exactly once.
func TestClusterRoutingAndMergedModel(t *testing.T) {
	tc := startCluster(t, 3)
	cc := tc.client()
	ctx := context.Background()

	const devices = 60
	baseline := core.Records{}
	for i := 0; i < devices; i++ {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00111%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err == nil {
			err = cc.UploadRecords(ctx, dev.IMSI, sealed)
		}
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	got, err := cc.FetchClusterModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, MarshalModel(baseline)) {
		t.Fatal("cluster merged model differs from sequential baseline")
	}
	// Every node should have seen SOME uploads (ownership spread), and the
	// totals must account for every device exactly once.
	stats, errs := cc.FetchStatsAll(ctx)
	if len(errs) != 0 {
		t.Fatalf("stats errors: %v", errs)
	}
	var total uint64
	for id, st := range stats {
		if st.Uploads == 0 {
			t.Errorf("node %s folded nothing — ownership is degenerate", id)
		}
		total += st.Uploads
	}
	if total != devices {
		t.Fatalf("cluster folded %d uploads for %d devices", total, devices)
	}
}

// TestClusterOfOneAgainstMaplessServer drives a plain server — no Map, no
// NodeID — through a one-node ClusterClient, which is how seedload -addr
// talks to a single seedfleetd. The server never redirects and the client
// has no peer to ask for a map, so Errors == 0 also shows that no TMapPull
// reached the map-less server.
func TestClusterOfOneAgainstMaplessServer(t *testing.T) {
	srv, cl := startServer(t, ServerConfig{Shards: 2})
	addr := srv.Addr().String()
	cc, err := NewClusterClient(ClusterClientConfig{
		Nodes:  []cluster.Node{{ID: addr, Addr: addr}},
		Client: ClientConfig{Conns: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ctx := context.Background()

	const devices = 20
	for i := 0; i < devices; i++ {
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00116%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err == nil {
			err = cc.UploadRecords(ctx, dev.IMSI, sealed)
		}
		if err != nil {
			t.Fatalf("device %d upload: %v", i, err)
		}
		rep := report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "x.test"}
		sr, err := dev.SealReport(rep.Marshal())
		if err == nil {
			err = cc.Report(ctx, dev.IMSI, sr)
		}
		if err != nil {
			t.Fatalf("device %d report: %v", i, err)
		}
		payload, err := cc.Query(ctx, dev.IMSI, cause.MM(cause.Code(150+i%3)))
		if err != nil {
			t.Fatalf("device %d query: %v", i, err)
		}
		if _, ok, err := dev.OpenSuggest(payload); err != nil || !ok {
			t.Fatalf("device %d suggestion: ok=%v err=%v", i, ok, err)
		}
	}

	got, err := cc.FetchClusterModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cl.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("one-node cluster model (%d bytes) differs from the plain client's (%d bytes)", len(got), len(want))
	}

	stats, errs := cc.FetchStatsAll(ctx)
	st, ok := stats[addr]
	if len(errs) != 0 || !ok {
		t.Fatalf("stats: %v, errors %v", stats, errs)
	}
	if st.Uploads != devices || st.Reports != devices || st.Queries != devices || st.Errors != 0 || st.WrongShard != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The client-side series and sums cover the one node.
	if n := cc.Latency("upload").Len(); n != devices {
		t.Fatalf("routed upload series has %d samples, want %d", n, devices)
	}
	if cc.Frames() < 3*devices || cc.Writes() == 0 || cc.Retries() != 0 || cc.Redials() != 0 {
		t.Fatalf("frames=%d writes=%d retries=%d redials=%d", cc.Frames(), cc.Writes(), cc.Retries(), cc.Redials())
	}
}

// TestClusterWrongShardRedirect gives the client a stale bootstrap map
// (single node) and checks redirects teach it the real topology.
func TestClusterWrongShardRedirect(t *testing.T) {
	tc := startCluster(t, 3)
	ctx := context.Background()

	// Deliberately wrong bootstrap: the client believes n0 owns everything
	// (a bootstrap map is epoch 0 < cluster's epoch 1, so servers'
	// redirects win).
	cc, err := NewClusterClient(ClusterClientConfig{
		Nodes:  []cluster.Node{{ID: "n0", Addr: tc.addrs["n0"]}},
		Client: ClientConfig{Conns: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	for i := 0; i < 30; i++ {
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00112%010d", i))
		sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err := cc.UploadRecords(ctx, dev.IMSI, sealed); err != nil {
			t.Fatalf("device %d through stale map: %v", i, err)
		}
	}
	if cc.Map().Epoch != tc.epoch {
		t.Fatalf("client never adopted the redirect map: epoch %d", cc.Map().Epoch)
	}
	// At least one request must actually have been redirected.
	var redirects uint64
	for _, srv := range tc.servers {
		redirects += srv.Stats().WrongShard
	}
	if redirects == 0 {
		t.Fatal("stale map produced zero redirects — test proved nothing")
	}
}

// TestClusterKillRestartExactlyOnce kills one node mid-campaign, restarts
// it over its journals, retries every pre-kill upload verbatim, and
// requires the final merged model to equal the baseline — acked work
// survived, retried work deduped.
func TestClusterKillRestartExactlyOnce(t *testing.T) {
	tc := startCluster(t, 3)
	cc := tc.client()
	ctx := context.Background()

	type sent struct {
		imsi   string
		sealed []byte
	}
	const devices = 45
	baseline := core.Records{}
	var all []sent
	for i := 0; i < devices; i++ {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00113%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err == nil {
			err = cc.UploadRecords(ctx, dev.IMSI, sealed)
		}
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		all = append(all, sent{dev.IMSI, sealed})
	}

	tc.kill("n1")
	tc.restart("n1", cc.Map())

	// Retry EVERY upload as a paranoid client would after losing its
	// connection: duplicates everywhere, double-folds nowhere.
	for i, s := range all {
		if err := cc.UploadRecords(ctx, s.imsi, s.sealed); err != nil {
			t.Fatalf("post-restart retry %d: %v", i, err)
		}
	}
	got, err := cc.FetchClusterModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, MarshalModel(baseline)) {
		t.Fatal("model diverged across kill+restart+retry")
	}
	if st := tc.servers["n1"].Stats(); st.ReplayedRecords == 0 {
		t.Fatal("restarted node replayed nothing — kill happened after a compaction covered everything?")
	}
}

// TestClusterRebalanceExactlyOnce drains a node out (epoch 2), uploads
// more, brings it back (epoch 3), retries everything, and checks the
// merged model still equals the baseline: the counter handoff preserved
// dedup across ownership moves in both directions.
func TestClusterRebalanceExactlyOnce(t *testing.T) {
	tc := startCluster(t, 3)
	cc := tc.client()
	ctx := context.Background()

	type sent struct {
		imsi   string
		sealed []byte
	}
	baseline := core.Records{}
	var all []sent
	upload := func(i int) {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00114%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err == nil {
			err = cc.UploadRecords(ctx, dev.IMSI, sealed)
		}
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		all = append(all, sent{dev.IMSI, sealed})
	}
	for i := 0; i < 30; i++ {
		upload(i)
	}

	// Epoch 2: n2 leaves; its subscribers move to n0/n1 with their counters.
	survivors := []cluster.Node{
		{ID: "n0", Addr: tc.addrs["n0"]},
		{ID: "n1", Addr: tc.addrs["n1"]},
	}
	if err := cc.Rebalance(ctx, cluster.New(2, survivors)); err != nil {
		t.Fatalf("rebalance out: %v", err)
	}
	for i := 30; i < 60; i++ {
		upload(i)
	}
	// Retrying pre-rebalance uploads now lands on NEW owners, which must
	// recognize them as duplicates via the handed-off counters.
	for i, s := range all[:30] {
		if err := cc.UploadRecords(ctx, s.imsi, s.sealed); err != nil {
			t.Fatalf("post-move retry %d: %v", i, err)
		}
	}

	// Epoch 3: n2 rejoins and takes its keyspace back.
	if err := cc.Rebalance(ctx, cluster.New(3, tc.nodes())); err != nil {
		t.Fatalf("rebalance back: %v", err)
	}
	for i := 60; i < 75; i++ {
		upload(i)
	}
	for i, s := range all {
		if err := cc.UploadRecords(ctx, s.imsi, s.sealed); err != nil {
			t.Fatalf("final retry %d: %v", i, err)
		}
	}

	got, err := cc.FetchClusterModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, MarshalModel(baseline)) {
		t.Fatal("model diverged across rebalances — counter handoff leaked a double fold")
	}
	for _, srv := range tc.servers {
		if srv.Epoch() != 3 {
			t.Fatalf("node stuck at epoch %d", srv.Epoch())
		}
	}
}

// TestClusterRestartKeepsCommittedMap: a journaled node persists the shard
// map it commits and restarts at it, although its flags still build the
// bootstrap map. Three nodes rebalance to epoch 2 (n2 drained), and n0 is
// killed and restarted with its epoch-1 flags. Every upload the client
// routes under epoch 2 must land: an n0 back at epoch 1 would redirect
// the subscribers it took over from n2 with a map older than the client's,
// which the client does not adopt, until its routing attempts ran out.
func TestClusterRestartKeepsCommittedMap(t *testing.T) {
	tc := startCluster(t, 3)
	cc := tc.client()
	ctx := context.Background()
	bootstrap := cluster.New(tc.epoch, tc.nodes())
	survivors := []cluster.Node{
		{ID: "n0", Addr: tc.addrs["n0"]},
		{ID: "n1", Addr: tc.addrs["n1"]},
	}
	if err := cc.Rebalance(ctx, cluster.New(2, survivors)); err != nil {
		t.Fatalf("rebalance out: %v", err)
	}
	tc.kill("n0")
	n0 := tc.boot("n0", tc.addrs["n0"], bootstrap)
	tc.servers["n0"] = n0

	const devices = 60
	baseline := core.Records{}
	var failed []error
	for i := 0; i < devices; i++ {
		recs := deviceRecords(i)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00118%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err != nil {
			t.Fatal(err)
		}
		if err := cc.UploadRecords(ctx, dev.IMSI, sealed); err != nil {
			failed = append(failed, err)
			continue
		}
		baseline.Merge(recs)
	}
	if len(failed) > 0 {
		t.Errorf("%d of %d uploads failed after the restart; the first: %v", len(failed), devices, failed[0])
	}
	if e := n0.Epoch(); e != 2 {
		t.Errorf("restarted n0 is at epoch %d, want the committed 2", e)
	}
	got, err := cc.FetchClusterModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, MarshalModel(baseline)) {
		t.Fatal("merged model differs from the fold of the acknowledged uploads")
	}
}

// TestCorruptClusterMapRefusesStart: a damaged persisted shard map refuses
// startup, as a damaged journal does, and ForceEmpty quarantines it and
// starts at the configured map.
func TestCorruptClusterMapRefusesStart(t *testing.T) {
	dir := t.TempDir()
	self := cluster.Node{ID: "n0", Addr: "127.0.0.1:1"}
	if err := writeClusterMap(dir, cluster.New(2, []cluster.Node{self})); err != nil {
		t.Fatal(err)
	}
	mp := mapPath(dir)
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0xFF
	if err := os.WriteFile(mp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Shards: 1, JournalDir: dir, NodeID: "n0", Map: cluster.New(1, []cluster.Node{self})}
	srv := quietServer(t, cfg)
	if err := srv.Start(); err == nil {
		_ = srv.Shutdown()
		t.Fatal("corrupt shard map accepted")
	} else if !strings.Contains(err.Error(), "cluster map") {
		t.Fatalf("error %q does not name the cluster map", err)
	}
	cfg.ForceEmpty = true
	srv = quietServer(t, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("force-empty start: %v", err)
	}
	defer func() { _ = srv.Shutdown() }()
	if e := srv.Epoch(); e != 1 {
		t.Fatalf("force-empty start at epoch %d, want the configured 1", e)
	}
	if _, err := os.Stat(mp + ".corrupt"); err != nil {
		t.Fatalf("damaged shard map not quarantined: %v", err)
	}
}

// TestClusterCommitWithoutPrepareRejected: commit of an unknown epoch is
// an error; commit of the active epoch is an idempotent ack.
func TestClusterCommitWithoutPrepareRejected(t *testing.T) {
	tc := startCluster(t, 2)
	cl := NewClient(ClientConfig{Addr: tc.addrs["n0"], Conns: 1})
	defer cl.Close()

	if _, err := cl.Do("commit", Frame{Type: TMapCommit, Payload: EpochPayload(99)}); err == nil {
		t.Fatal("commit of unprepared epoch accepted")
	}
	resp, err := cl.Do("commit", Frame{Type: TMapCommit, Payload: EpochPayload(tc.epoch)})
	if err != nil || resp.Type != TAck {
		t.Fatalf("idempotent commit of active epoch: resp=%v err=%v", resp.Type, err)
	}
}
