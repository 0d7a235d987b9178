package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

func (tc *testCluster) client() *Client {
	cl := NewClient(ClientConfig{Nodes: tc.nodes(), Conns: 2})
	tc.t.Cleanup(cl.Close)
	return cl
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

	const devices = 60
	baseline := core.Records{}
	for i := 0; i < devices; i++ {
		recs := deviceRecords(i)
		baseline.Merge(recs)
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00111%010d", i))
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err == nil {
			err = cc.UploadRecords(dev.IMSI, sealed)
		}
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	got, err := cc.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, MarshalModel(baseline)) {
		t.Fatal("cluster merged model differs from sequential baseline")
	}
	// Every node should have seen SOME uploads (ownership spread), and the
	// totals must account for every device exactly once.
	for id, srv := range tc.servers {
		if srv.Stats().Uploads == 0 {
			t.Errorf("node %s folded nothing — ownership is degenerate", id)
		}
	}
	sum, err := cc.FetchStats()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Uploads != devices {
		t.Fatalf("cluster folded %d uploads for %d devices", sum.Uploads, devices)
	}
}

// TestClusterOfOneAgainstMaplessServer drives a plain server — no Map, no
// NodeID — through ClientConfig{Addr}, which is how seedload -addr and the
// benchmark talk to a single seedfleetd, and through a one-member
// ClientConfig{Nodes}, each against a fresh server behind a forwarder that
// keeps what the client sent. Both put the same frames on the wire: the
// server never redirects and a lone member has no peer to ask for a map,
// so no TMapPull reaches the map-less server (Errors == 0), and a
// one-member model pull is the server's model as sent.
func TestClusterOfOneAgainstMaplessServer(t *testing.T) {
	const devices = 20
	drive := func(clustered bool) (sent, model []byte) {
		srv, direct := startServer(t, ServerConfig{Shards: 2})
		fw := startForwarder(t, srv.Addr().String(), 0, 1)
		cfg := ClientConfig{Addr: fw.addr(), Conns: 1}
		if clustered {
			cfg = ClientConfig{Nodes: []cluster.Node{{ID: "n0", Addr: fw.addr()}}, Conns: 1}
		}
		cl := NewClient(cfg)
		defer cl.Close()
		for i := 0; i < devices; i++ {
			dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00116%010d", i))
			sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
			if err == nil {
				err = cl.UploadRecords(dev.IMSI, sealed)
			}
			if err != nil {
				t.Fatalf("device %d upload: %v", i, err)
			}
			rep := report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "x.test"}
			sr, err := dev.SealReport(rep.Marshal())
			if err == nil {
				err = cl.Report(dev.IMSI, sr)
			}
			if err != nil {
				t.Fatalf("device %d report: %v", i, err)
			}
			payload, err := cl.Query(dev.IMSI, cause.MM(cause.Code(150+i%3)))
			if err != nil {
				t.Fatalf("device %d query: %v", i, err)
			}
			if _, ok, err := dev.OpenSuggest(payload); err != nil || !ok {
				t.Fatalf("device %d suggestion: ok=%v err=%v", i, ok, err)
			}
		}
		model, err := cl.FetchModel()
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.FetchModel()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(model, want) {
			t.Fatalf("model pull (%d bytes) differs from the server's model (%d bytes)", len(model), len(want))
		}
		st, err := cl.FetchStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Uploads != devices || st.Reports != devices || st.Queries != devices || st.Errors != 0 || st.WrongShard != 0 {
			t.Fatalf("stats %+v", st)
		}
		if cl.Frames() != 3*devices+2 || cl.Writes() == 0 || cl.Retries() != 0 || cl.Redials() != 0 {
			t.Fatalf("frames=%d writes=%d retries=%d redials=%d", cl.Frames(), cl.Writes(), cl.Retries(), cl.Redials())
		}
		return fw.sentBytes(), model
	}
	plainSent, plainModel := drive(false)
	oneSent, oneModel := drive(true)
	if len(plainSent) == 0 || !bytes.Equal(plainSent, oneSent) {
		t.Fatalf("a one-member cluster sent %d bytes, the plain client %d, not the same frames", len(oneSent), len(plainSent))
	}
	if !bytes.Equal(plainModel, oneModel) {
		t.Fatal("a one-member cluster's model differs from the plain client's")
	}
}

// TestClusterWrongShardRedirect gives the client a stale bootstrap map
// (single node) and checks redirects teach it the real topology.
func TestClusterWrongShardRedirect(t *testing.T) {
	tc := startCluster(t, 3)

	// Deliberately wrong bootstrap: the client believes n0 owns everything
	// (a bootstrap map is epoch 0 < cluster's epoch 1, so servers'
	// redirects win).
	cc := NewClient(ClientConfig{Nodes: []cluster.Node{{ID: "n0", Addr: tc.addrs["n0"]}}, Conns: 2})
	defer cc.Close()

	for i := 0; i < 30; i++ {
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00112%010d", i))
		sealed, _ := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err := cc.UploadRecords(dev.IMSI, sealed); err != nil {
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

// TestClusterLaggingNodeBacksOff: a node whose map lags the client's
// redirects with a map that is not newer, and the client backs off and
// asks again rather than spending its attempts at once. Three nodes at
// epoch 1; the client, n1 and n2 move to epoch 2 (n2 drained), and n0
// keeps epoch 1 for 200 ms more, redirecting the subscribers it gains
// from n2 back to n2. Every upload must land.
func TestClusterLaggingNodeBacksOff(t *testing.T) {
	tc := startCluster(t, 3)
	cl := tc.client()
	old := cluster.New(tc.epoch, tc.nodes())
	newer := cluster.New(2, []cluster.Node{{ID: "n0", Addr: tc.addrs["n0"]}, {ID: "n1", Addr: tc.addrs["n1"]}})
	n0 := tc.servers["n0"]
	tc.servers["n1"].SetMap(newer)
	tc.servers["n2"].SetMap(newer)
	cl.adopt(newer)
	lag := time.AfterFunc(200*time.Millisecond, func() { n0.SetMap(newer) })
	defer lag.Stop()

	const devices = 8
	baseline := core.Records{}
	errs := make(chan error, devices)
	for i, n := 0, 0; n < devices; i++ {
		dev := NewSimDevice(DefaultMasterKey, fmt.Sprintf("00119%010d", i))
		if old.OwnerID(dev.IMSI) != "n2" || newer.OwnerID(dev.IMSI) != "n0" {
			continue
		}
		recs := deviceRecords(i)
		baseline.Merge(recs)
		sealed, err := dev.SealRecords(core.MarshalRecords(recs))
		if err != nil {
			t.Fatal(err)
		}
		n++
		go func() { errs <- cl.UploadRecords(dev.IMSI, sealed) }()
	}
	for range devices {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n0.Stats().WrongShard == 0 {
		t.Fatal("n0 redirected nothing: the test proved nothing")
	}
	got, err := cl.FetchModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, MarshalModel(baseline)) {
		t.Fatal("merged model differs from the fold of the uploads")
	}
}

// TestFetchStatsNamesFailedMembers: a clustered stats pull sums the members
// that answer and names every one that did not, in node-ID order.
func TestFetchStatsNamesFailedMembers(t *testing.T) {
	tc := startCluster(t, 2)
	refuse := func(_ int, c net.Conn) {
		br := bufio.NewReader(c)
		for {
			if _, err := ReadFrame(br, DefaultMaxFrame); err != nil {
				return
			}
			if _, err := c.Write(encodeFrames(Frame{Type: TErr, Payload: []byte("down")})); err != nil {
				return
			}
		}
	}
	members := append(tc.nodes(),
		cluster.Node{ID: "n4", Addr: stubServer(t, refuse)},
		cluster.Node{ID: "n2", Addr: stubServer(t, refuse)},
		cluster.Node{ID: "n3", Addr: stubServer(t, refuse)})
	cl := NewClient(ClientConfig{Nodes: members, Conns: 1})
	defer cl.Close()
	dev := NewSimDevice(DefaultMasterKey, "001200000000001")
	sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(1)))
	if err == nil {
		err = tc.client().UploadRecords(dev.IMSI, sealed)
	}
	if err != nil {
		t.Fatal(err)
	}

	sum, err := cl.FetchStats()
	if sum.Uploads != 1 {
		t.Errorf("the answering members' sum counts %d uploads, want 1", sum.Uploads)
	}
	want := "node n2: fleet: server error: down\nnode n3: fleet: server error: down\nnode n4: fleet: server error: down"
	if err == nil || err.Error() != want {
		t.Fatalf("stats error %q, want %q", err, want)
	}
}

// TestClusterKillRestartExactlyOnce kills one node mid-campaign, restarts
// it over its journals, retries every pre-kill upload verbatim, and
// requires the final merged model to equal the baseline — acked work
// survived, retried work deduped.
func TestClusterKillRestartExactlyOnce(t *testing.T) {
	tc := startCluster(t, 3)
	cc := tc.client()

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
			err = cc.UploadRecords(dev.IMSI, sealed)
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
		if err := cc.UploadRecords(s.imsi, s.sealed); err != nil {
			t.Fatalf("post-restart retry %d: %v", i, err)
		}
	}
	got, err := cc.FetchModel()
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
			err = cc.UploadRecords(dev.IMSI, sealed)
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
		if err := cc.UploadRecords(s.imsi, s.sealed); err != nil {
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
		if err := cc.UploadRecords(s.imsi, s.sealed); err != nil {
			t.Fatalf("final retry %d: %v", i, err)
		}
	}

	got, err := cc.FetchModel()
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
		if err := cc.UploadRecords(dev.IMSI, sealed); err != nil {
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
	got, err := cc.FetchModel()
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

	if _, err := cl.do(context.Background(), "commit", target{}, Frame{Type: TMapCommit, Payload: EpochPayload(99)}); err == nil {
		t.Fatal("commit of unprepared epoch accepted")
	}
	resp, err := cl.do(context.Background(), "commit", target{}, Frame{Type: TMapCommit, Payload: EpochPayload(tc.epoch)})
	if err != nil || resp.Type != TAck {
		t.Fatalf("idempotent commit of active epoch: resp=%v err=%v", resp.Type, err)
	}
}
