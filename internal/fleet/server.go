package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
	"github.com/seed5g/seed/internal/fleet/cluster"
	"github.com/seed5g/seed/internal/report"
)

// ServerConfig parameterizes the aggregation server.
type ServerConfig struct {
	// Addr is the TCP listen address (":0" picks a free port).
	Addr string
	// Shards is the number of aggregation workers. A device's envelope
	// state lives on its FNV-hash home shard, so all of one device's
	// sealed traffic is handled single-threaded (the crypto5g key states
	// are not concurrency-safe) while distinct devices fold in parallel.
	Shards int
	// QueueDepth bounds each shard's job queue. A full queue answers
	// TRetryAfter instead of accepting work it cannot keep up with —
	// explicit backpressure, mirroring the paper's congestion diagnosis.
	QueueDepth int
	// MaxFrame bounds accepted frame payloads.
	MaxFrame uint32
	// RetryAfter is the wait hint returned on backpressure.
	RetryAfter time.Duration
	// JournalDir, when set, enables the durable tier: each shard keeps an
	// append-only journal of acked sealed envelopes (group-commit fsync)
	// plus a compaction snapshot in this directory. A SIGKILL'd server
	// replays to its exact pre-crash model — including the envelope
	// counters that dedup client retries — on the next Start. Unset, the
	// server keeps its state in memory only.
	JournalDir string
	// CompactBytes is the per-shard journal size that triggers snapshot
	// compaction (default 4 MiB).
	CompactBytes int64
	// ForceEmpty quarantines corrupt durable state and starts empty
	// instead of refusing startup. Never the default: a silent empty
	// model is indistinguishable from data loss.
	ForceEmpty bool
	// NodeID identifies this process in a cluster shard map. Required
	// when Map is set.
	NodeID string
	// Map is the initial cluster shard map. When set, the server answers
	// TWrongShard (carrying the current map) for IMSIs it does not own,
	// and participates in the prepare/install/commit rebalance protocol.
	Map *cluster.Map
	// MasterKey derives per-subscriber envelope keys (SubscriberKey).
	MasterKey [16]byte
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *ServerConfig) withDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7316"
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 25 * time.Millisecond
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 4 << 20
	}
	if c.MasterKey == ([16]byte{}) {
		c.MasterKey = DefaultMasterKey
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// readTimeout is the read deadline of a connection waiting for its next
// frame: an idle connection is closed when it expires. writeTimeout bounds
// each write of finished responses.
const (
	readTimeout  = 30 * time.Second
	writeTimeout = 10 * time.Second
)

// ServerStats is a snapshot of the server's counters.
type ServerStats struct {
	Conns         uint64 `json:"conns"`
	Uploads       uint64 `json:"uploads"`
	Duplicates    uint64 `json:"duplicates"`
	RecordRows    uint64 `json:"record_rows"`
	Reports       uint64 `json:"reports"`
	Queries       uint64 `json:"queries"`
	Suggestions   uint64 `json:"suggestions"`
	Backpressured uint64 `json:"backpressured"`
	Errors        uint64 `json:"errors"`
	// Dropped counts accepted-then-lost jobs. The drain protocol processes
	// every enqueued job before a worker exits, so anything other than 0
	// is a bug (the CI smoke job asserts it).
	Dropped uint64 `json:"dropped"`
	// WrongShard counts requests redirected to their owning node.
	WrongShard uint64 `json:"wrong_shard"`
	// Journal durability counters (zero when JournalDir is unset).
	JournalRecords  uint64 `json:"journal_records"`
	JournalSyncs    uint64 `json:"journal_syncs"`
	Compactions     uint64 `json:"compactions"`
	ReplayedRecords uint64 `json:"replayed_records"`
	// Coalescing counters: Jobs shard jobs were processed in Batches
	// worker wake-ups (one fsync per batch on the journaled path), and
	// Responses response frames left in Flushes connection writes.
	Jobs      uint64 `json:"jobs"`
	Batches   uint64 `json:"batches"`
	Responses uint64 `json:"responses"`
	Flushes   uint64 `json:"flushes"`
	// Epoch is the active cluster map epoch (zero outside a cluster).
	Epoch uint64 `json:"epoch"`
}

// Add folds another node's counters into st: every counter sums, Epoch
// takes the newer.
func (st *ServerStats) Add(o ServerStats) {
	st.Conns += o.Conns
	st.Uploads += o.Uploads
	st.Duplicates += o.Duplicates
	st.RecordRows += o.RecordRows
	st.Reports += o.Reports
	st.Queries += o.Queries
	st.Suggestions += o.Suggestions
	st.Backpressured += o.Backpressured
	st.Errors += o.Errors
	st.Dropped += o.Dropped
	st.WrongShard += o.WrongShard
	st.JournalRecords += o.JournalRecords
	st.JournalSyncs += o.JournalSyncs
	st.Compactions += o.Compactions
	st.ReplayedRecords += o.ReplayedRecords
	st.Jobs += o.Jobs
	st.Batches += o.Batches
	st.Responses += o.Responses
	st.Flushes += o.Flushes
	st.Epoch = max(st.Epoch, o.Epoch)
}

// Server is the carrier fleet aggregation service.
type Server struct {
	cfg        ServerConfig
	ln         net.Listener
	acceptDone chan struct{} // closed when acceptLoop has returned
	shards     []*shard

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	draining atomic.Bool // stored under connMu, read by every connection

	// syncHook, when a test sets it before Start, runs in the shard worker
	// right before each journal fsync.
	syncHook func()

	mapMu      sync.RWMutex
	curMap     *cluster.Map
	pendingMap *cluster.Map

	connWG  sync.WaitGroup
	shardWG sync.WaitGroup

	nConns, uploads, duplicates, recordRows atomic.Uint64
	reports, queries, suggestions           atomic.Uint64
	backpressured, nErrors, dropped         atomic.Uint64
	wrongShard, jRecords, jSyncs            atomic.Uint64
	compactions, replayed                   atomic.Uint64
	jobs, batches, responses, flushes       atomic.Uint64
}

type job struct {
	typ  FrameType
	imsi string
	// body is the sealed bytes of an upload or report, or the encoded
	// table of a counter install: the body of the journal record.
	body  []byte
	cause cause.Cause
	// newMap rides a TMapPrepare control job (collect moved-out counters).
	newMap *cluster.Map
	reply  chan Frame
}

// shard owns the envelope and model state for its slice of the device
// population; apply is how a journal record changes either. Only the
// shard's worker goroutine touches envs (the crypto states are
// single-threaded); mu guards model, which queries and model pulls read
// across shards.
type shard struct {
	idx   int
	srv   *Server
	queue chan job
	mu    sync.Mutex
	// model is the fold of every upload the shard applied: per cause, the
	// success count of each action (Algorithm 1's crowd-sourced table).
	model core.Records
	envs  map[string]*crypto5g.Envelope
	jr    *journal // nil when JournalDir is unset
	// degraded is set when an fsync failed: the shard stops acknowledging
	// durable work rather than acking state it cannot promise to keep.
	degraded bool
	// Per-batch scratch, reused: the drained jobs, their replies, the
	// journal records among them and which jobs those belong to.
	batchBuf []job
	replies  []Frame
	recs     []journalRec
	durable  []int
}

// NewServer creates an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	cfg.withDefaults()
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{}), curMap: cfg.Map}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			idx:   i,
			srv:   s,
			queue: make(chan job, cfg.QueueDepth),
			model: core.Records{},
			envs:  make(map[string]*crypto5g.Envelope),
		})
	}
	return s
}

// Start replays the journal when there is one, binds the listener, and
// launches the shard workers and accept loop.
func (s *Server) Start() error {
	if s.curMap != nil && s.cfg.NodeID == "" {
		return errors.New("fleet: cluster Map requires NodeID")
	}
	if s.curMap != nil && s.cfg.NodeID != "" {
		if _, ok := s.curMap.Node(s.cfg.NodeID); !ok {
			return fmt.Errorf("fleet: node %q not in cluster map", s.cfg.NodeID)
		}
	}
	if s.cfg.JournalDir != "" {
		if err := s.recoverDurable(); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.serve(ln)
	s.cfg.Logf("seedfleetd: listening on %s (%d shards, queue %d)",
		ln.Addr(), s.cfg.Shards, s.cfg.QueueDepth)
	return nil
}

// serve launches the shard workers and the accept loop on ln.
func (s *Server) serve(ln net.Listener) {
	s.ln = ln
	for _, sh := range s.shards {
		s.shardWG.Add(1)
		go sh.run()
	}
	s.acceptDone = make(chan struct{})
	go s.acceptLoop()
}

// recoverDurable recovers every shard from its snapshot + journal and
// opens the journal for appending. Refuses to start on damage unless
// ForceEmpty.
func (s *Server) recoverDurable() error {
	if err := os.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	totalReplayed := 0
	for _, sh := range s.shards {
		rec, err := sh.restore()
		if err != nil {
			return fmt.Errorf("fleet: journal recovery: %w", err)
		}
		jr, err := openJournalAppend(journalPath(s.cfg.JournalDir, sh.idx), rec.GoodLen, rec.NextSeq)
		if err != nil {
			return fmt.Errorf("fleet: journal open shard %d: %w", sh.idx, err)
		}
		sh.jr = jr
		totalReplayed += rec.Replayed
		s.replayed.Add(uint64(rec.Replayed))
		if rec.Replayed > 0 || rec.TornTail || rec.Skipped > 0 {
			s.cfg.Logf("seedfleetd: shard %d recovered: snapSeq=%d replayed=%d deduped=%d tornTail=%v envs=%d",
				sh.idx, rec.SnapSeq, rec.Replayed, rec.Skipped, rec.TornTail, len(sh.envs))
		}
	}
	// The journals opened above may be new files: nothing may be acked
	// into one before its directory entry is on disk.
	if err := syncDir(s.cfg.JournalDir); err != nil {
		return fmt.Errorf("fleet: journal directory sync: %w", err)
	}
	if totalReplayed > 0 {
		s.cfg.Logf("seedfleetd: crash recovery replayed %d journal records in %s", totalReplayed, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// SetMap installs a cluster shard map outside the wire protocol (tests
// and bootstrap paths where addresses are only known after Start).
func (s *Server) SetMap(m *cluster.Map) {
	s.mapMu.Lock()
	s.curMap = m
	s.mapMu.Unlock()
}

// Epoch returns the active cluster map epoch (0 when not clustered).
func (s *Server) Epoch() uint64 {
	s.mapMu.RLock()
	defer s.mapMu.RUnlock()
	if s.curMap == nil {
		return 0
	}
	return s.curMap.Epoch
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:           s.nConns.Load(),
		Uploads:         s.uploads.Load(),
		Duplicates:      s.duplicates.Load(),
		RecordRows:      s.recordRows.Load(),
		Reports:         s.reports.Load(),
		Queries:         s.queries.Load(),
		Suggestions:     s.suggestions.Load(),
		Backpressured:   s.backpressured.Load(),
		Errors:          s.nErrors.Load(),
		Dropped:         s.dropped.Load(),
		WrongShard:      s.wrongShard.Load(),
		JournalRecords:  s.jRecords.Load(),
		JournalSyncs:    s.jSyncs.Load(),
		Compactions:     s.compactions.Load(),
		ReplayedRecords: s.replayed.Load(),
		Jobs:            s.jobs.Load(),
		Batches:         s.batches.Load(),
		Responses:       s.responses.Load(),
		Flushes:         s.flushes.Load(),
		Epoch:           s.Epoch(),
	}
}

// Model returns the canonical serialization of the merged aggregate model.
func (s *Server) Model() []byte {
	merged := core.Records{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		merged.Merge(sh.model)
		sh.mu.Unlock()
	}
	return MarshalModel(merged)
}

// stop ends service: no new connections, every open one told to finish by
// stopConn, every queued job processed by its shard worker.
func (s *Server) stop(stopConn func(net.Conn)) {
	s.connMu.Lock()
	s.draining.Store(true)
	for c := range s.conns {
		stopConn(c)
	}
	s.connMu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
		<-s.acceptDone
	}
	s.connWG.Wait()
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.shardWG.Wait()
}

// Shutdown drains gracefully: stop accepting, answer every request already
// read off a connection, process every queued job, compact the journal
// when there is one (the next Start then replays nothing), and return.
// After Shutdown the aggregate equals exactly what was acknowledged.
func (s *Server) Shutdown() error {
	// Expire pending reads: each connection stops reading, writes the
	// responses it still owes, in order, and closes.
	s.stop(func(c net.Conn) { _ = c.SetReadDeadline(time.Now()) })
	var err error
	for _, sh := range s.shards {
		if sh.jr != nil {
			err = errors.Join(err, sh.compact(), sh.jr.close())
		}
	}
	st := s.Stats()
	s.cfg.Logf("seedfleetd: drain complete (uploads=%d duplicates=%d reports=%d queries=%d backpressured=%d errors=%d dropped=%d jobs_per_batch=%.2f responses_per_flush=%.2f)",
		st.Uploads, st.Duplicates, st.Reports, st.Queries, st.Backpressured, st.Errors, st.Dropped,
		Ratio(st.Jobs, st.Batches), Ratio(st.Responses, st.Flushes))
	return err
}

// Kill abandons the server without compaction: the listener and every
// connection are closed hard, queued jobs still land in the journal (a
// real SIGKILL can strike after the fsync but before the ack — that is
// exactly the window crash recovery must cover). Tests use it as
// in-process SIGKILL injection.
func (s *Server) Kill() {
	s.stop(func(c net.Conn) { _ = c.Close() })
	for _, sh := range s.shards {
		if sh.jr != nil {
			_ = sh.jr.close()
		}
	}
}

// acceptLoop serves the listener until it is closed. Any other Accept
// failure (EMFILE, ECONNABORTED) is transient: the loop waits 5 ms, doubling
// up to 1 s while failures repeat, and accepts again, as net/http does.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return // listener closed on Shutdown
		}
		if err != nil {
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.cfg.Logf("seedfleetd: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		s.nConns.Add(1)
		go s.handleConn(conn)
	}
}

// connPipelineDepth bounds the requests one connection may have accepted
// but not yet answered. Beyond it the reader stops reading and TCP flow
// control pushes back on the sender. It exceeds maxJournalBatch so that a
// single pipelining connection can fill a whole group commit.
const connPipelineDepth = 128

// handleConn serves one connection with two goroutines: this one reads
// and dispatches requests without waiting for their replies, the other
// writes the replies in request order.
func (s *Server) handleConn(conn net.Conn) {
	// pending carries, in request order, the channel each accepted
	// request's reply arrives on.
	pending := make(chan chan Frame, connPipelineDepth)
	written := make(chan struct{})
	go func() {
		s.writeReplies(conn, pending)
		close(written)
	}()
	br := bufio.NewReader(conn)
	for {
		if !frameBuffered(br) {
			// The next read reaches the socket. Shutdown stores draining
			// before it expires the deadline, so looking after arming
			// cannot miss it; frames already read are still served.
			_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
			if s.draining.Load() {
				break
			}
		}
		f, err := ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			break // clean close, idle timeout, drain, or protocol error
		}
		pending <- s.dispatch(f)
	}
	close(pending)
	<-written
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	_ = conn.Close()
	s.connWG.Done()
}

// writeReplies emits each reply in request order, waiting for the shard
// where it must, and writes the connection once per run of ready replies:
// it flushes only when the next reply is not ready yet (or the run grew
// large). A write error closes the connection, which stops the reader and
// makes the remaining writes fail at once; the loop still consumes every
// reply, so the reader never blocks on a full pipeline.
func (s *Server) writeReplies(conn net.Conn, pending <-chan chan Frame) {
	var out []byte
	flush := func() {
		if len(out) == 0 {
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(out); err != nil {
			_ = conn.Close()
		}
		s.flushes.Add(1)
		if out = out[:0]; cap(out) > 4*flushBytes {
			out = nil // a model pull went through: do not keep its buffer
		}
	}
	for {
		var reply chan Frame
		select {
		case reply = <-pending:
		default:
			flush()
			reply = <-pending
		}
		if reply == nil {
			flush()
			return // the reader closed the pipeline and everything is out
		}
		var f Frame
		select {
		case f = <-reply:
		default:
			flush()
			f = <-reply
		}
		s.responses.Add(1)
		if out = AppendFrame(out, f); len(out) >= flushBytes {
			flush()
		}
	}
}

// flushBytes is the size at which queued responses are written out even
// though more are ready.
const flushBytes = 32 << 10

// checkOwner enforces the cluster shard map on a subscriber request. A
// non-nil return is the redirect (or freeze) response. Frozen means the
// IMSI is moving out under a prepared-but-uncommitted map: the old owner
// must not fold past the counters it already handed off, so the client
// waits out the commit.
func (s *Server) checkOwner(imsi string) *Frame {
	s.mapMu.RLock()
	cur, pend := s.curMap, s.pendingMap
	s.mapMu.RUnlock()
	if cur != nil && cur.OwnerID(imsi) != s.cfg.NodeID {
		s.wrongShard.Add(1)
		return &Frame{Type: TWrongShard, Payload: cur.Marshal()}
	}
	if pend != nil && pend.OwnerID(imsi) != s.cfg.NodeID {
		s.backpressured.Add(1)
		return &Frame{Type: TRetryAfter, Payload: RetryAfterPayload(uint32(s.cfg.RetryAfter / time.Millisecond))}
	}
	return nil
}

// dispatch routes one request frame and returns the channel its response
// arrives on. Sealed-envelope work goes to the device's home shard and is
// answered later; admin frames and errors are answered inline, the
// channel pre-filled.
func (s *Server) dispatch(f Frame) chan Frame {
	switch f.Type {
	case TUpload, TReport:
		imsi, sealed, err := ParseSealedPayload(f.Payload)
		if err != nil {
			return filled(s.errFrame(err))
		}
		if deny := s.checkOwner(imsi); deny != nil {
			return filled(*deny)
		}
		return s.submit(job{typ: f.Type, imsi: imsi, body: sealed})
	case TQuery:
		imsi, c, err := ParseQueryPayload(f.Payload)
		if err != nil {
			return filled(s.errFrame(err))
		}
		if deny := s.checkOwner(imsi); deny != nil {
			return filled(*deny)
		}
		return s.submit(job{typ: TQuery, imsi: imsi, cause: c})
	default:
		return filled(s.admin(f))
	}
}

func filled(f Frame) chan Frame {
	ch := make(chan Frame, 1)
	ch <- f
	return ch
}

// admin answers a non-subscriber frame inline.
func (s *Server) admin(f Frame) Frame {
	switch f.Type {
	case TModelPull:
		return Frame{Type: TModel, Payload: s.Model()}
	case TStatsPull:
		buf, err := json.Marshal(s.Stats())
		if err != nil {
			return s.errFrame(err)
		}
		return Frame{Type: TStats, Payload: buf}
	case TMapPull:
		s.mapMu.RLock()
		cur := s.curMap
		s.mapMu.RUnlock()
		if cur == nil {
			return s.errFrame(errors.New("fleet: node has no cluster map"))
		}
		return Frame{Type: TMap, Payload: cur.Marshal()}
	case TMapPrepare:
		return s.handlePrepare(f.Payload)
	case TCounterInstall:
		return s.handleInstall(f.Payload)
	case TMapCommit:
		return s.handleCommit(f.Payload)
	default:
		return s.errFrame(fmt.Errorf("fleet: unexpected request frame %v", f.Type))
	}
}

// handlePrepare is rebalance phase 1: stage the proposed map (freezing
// moved-out IMSIs) and collect their envelope counters from every shard.
func (s *Server) handlePrepare(payload []byte) Frame {
	m, err := cluster.Unmarshal(payload)
	if err != nil {
		return s.errFrame(err)
	}
	s.mapMu.Lock()
	if s.curMap != nil && m.Epoch <= s.curMap.Epoch {
		cur := s.curMap
		s.mapMu.Unlock()
		return s.errFrame(fmt.Errorf("fleet: prepare epoch %d not beyond current %d", m.Epoch, cur.Epoch))
	}
	s.pendingMap = m
	s.mapMu.Unlock()

	var entries []CounterEntry
	for _, sh := range s.shards {
		resp := s.submitShard(sh, job{typ: TMapPrepare, newMap: m})
		if resp.Type != TPrepared {
			return resp
		}
		part, err := ParseCounterTable(resp.Payload)
		if err != nil {
			return s.errFrame(err)
		}
		entries = append(entries, part...)
	}
	return Frame{Type: TPrepared, Payload: AppendCounterTable(nil, entries)}
}

// handleInstall is rebalance phase 2 on the receiving side: raise the
// handed-off subscribers' envelope counters on their home shards, each
// getting its part of the table. The install is journaled, so a crash
// after the TAck still dedups pre-move uploads after replay.
func (s *Server) handleInstall(payload []byte) Frame {
	entries, err := ParseCounterTable(payload)
	if err != nil {
		return s.errFrame(err)
	}
	byShard := make(map[*shard][]CounterEntry)
	for _, e := range entries {
		sh := s.homeShard(e.IMSI)
		byShard[sh] = append(byShard[sh], e)
	}
	for sh, part := range byShard {
		if resp := s.submitShard(sh, job{typ: TCounterInstall, body: AppendCounterTable(nil, part)}); resp.Type != TAck {
			return resp
		}
	}
	return Frame{Type: TAck}
}

// handleCommit is rebalance phase 3: activate the prepared map. Commits
// of an epoch at or below the active one are idempotent acks so the
// controller can retry.
func (s *Server) handleCommit(payload []byte) Frame {
	epoch, err := ParseEpoch(payload)
	if err != nil {
		return s.errFrame(err)
	}
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	if s.curMap != nil && s.curMap.Epoch >= epoch {
		return Frame{Type: TAck}
	}
	if s.pendingMap == nil || s.pendingMap.Epoch != epoch {
		return s.errFrame(fmt.Errorf("fleet: no prepared map for epoch %d", epoch))
	}
	s.curMap = s.pendingMap
	s.pendingMap = nil
	s.cfg.Logf("seedfleetd: shard map epoch %d active (%d nodes)", epoch, len(s.curMap.Nodes()))
	return Frame{Type: TAck}
}

func (s *Server) homeShard(imsi string) *shard {
	return s.shards[fnv32a(imsi)%uint32(len(s.shards))]
}

// fnv32a is hash/fnv's 32-bit FNV-1a over the bytes of s, without the
// hasher and the byte-slice copy: shard placement, and with it every
// existing journal directory, depends on these exact values.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// submit enqueues a job on the device's home shard and returns the channel
// its reply arrives on; a full queue answers TRetryAfter there at once.
func (s *Server) submit(j job) chan Frame {
	sh := s.homeShard(j.imsi)
	j.reply = make(chan Frame, 1)
	select {
	case sh.queue <- j:
	default:
		s.backpressured.Add(1)
		j.reply <- Frame{Type: TRetryAfter, Payload: RetryAfterPayload(uint32(s.cfg.RetryAfter / time.Millisecond))}
	}
	return j.reply
}

// submitShard blocks a control job onto a specific shard (admin paths
// must not be shed by backpressure).
func (s *Server) submitShard(sh *shard, j job) Frame {
	j.reply = make(chan Frame, 1)
	sh.queue <- j
	return <-j.reply
}

func (s *Server) errFrame(err error) Frame {
	s.nErrors.Add(1)
	return Frame{Type: TErr, Payload: []byte(err.Error())}
}

// --- shard worker --------------------------------------------------------

// run is the shard worker loop with group commit: drain a batch from the
// queue, fold every job, append all new journal records, fsync ONCE, then
// release every ack. Replies never precede durability.
func (sh *shard) run() {
	defer sh.srv.shardWG.Done()
	for {
		j, ok := <-sh.queue
		if !ok {
			return
		}
		sh.batchBuf = append(sh.batchBuf[:0], j)
		closed := false
	fill:
		for len(sh.batchBuf) < maxJournalBatch {
			select {
			case j2, ok2 := <-sh.queue:
				if !ok2 {
					closed = true
					break fill
				}
				sh.batchBuf = append(sh.batchBuf, j2)
			default:
				break fill
			}
		}
		sh.process(sh.batchBuf)
		if closed {
			return
		}
	}
}

// process folds one batch and group-commits its journal records.
func (sh *shard) process(batch []job) {
	sh.srv.batches.Add(1)
	sh.srv.jobs.Add(uint64(len(batch)))
	replies, recs := sh.replies[:0], sh.recs[:0]
	durable := sh.durable[:0] // batch indices awaiting the fsync
	for i, j := range batch {
		f, rec := sh.handle(j)
		replies = append(replies, f)
		if rec.kind != 0 && sh.jr != nil {
			rec.seq = sh.jr.nextSeq
			sh.jr.nextSeq++
			recs = append(recs, rec)
			durable = append(durable, i)
		}
	}
	sh.replies, sh.recs, sh.durable = replies, recs, durable
	if len(recs) > 0 {
		err := sh.jr.append(recs)
		if err == nil {
			if sh.srv.syncHook != nil {
				sh.srv.syncHook()
			}
			err = sh.jr.sync()
		}
		if err != nil {
			// The folds already happened in memory but cannot be promised:
			// fail the acks (clients retry, landing on the journal once it
			// heals or on a restarted node) and stop acking new work.
			sh.srv.cfg.Logf("seedfleetd: FATAL shard %d journal write: %v — shard degraded, refusing new acks", sh.idx, err)
			sh.degraded = true
			for _, i := range durable {
				replies[i] = sh.srv.errFrame(fmt.Errorf("fleet: journal write failed: %w", err))
			}
		} else {
			sh.srv.jRecords.Add(uint64(len(recs)))
			sh.srv.jSyncs.Add(1)
		}
	}
	for i, j := range batch {
		j.reply <- replies[i]
	}
	if sh.jr != nil && !sh.degraded && sh.jr.size > sh.srv.cfg.CompactBytes {
		if err := sh.compact(); err != nil {
			sh.srv.cfg.Logf("seedfleetd: shard %d compaction: %v", sh.idx, err)
		}
	}
}

// compact writes the shard snapshot (counters + model, covering every
// journaled record) and truncates the journal. Crash-ordering: the
// snapshot's rename is on disk BEFORE the truncate, and replay skips
// seq <= snapshot seq, so dying between the two double-folds nothing.
func (sh *shard) compact() error {
	sh.mu.Lock()
	model := MarshalModel(sh.model)
	sh.mu.Unlock()
	if err := writeShardSnapshot(sh.srv.cfg.JournalDir, sh.idx, sh.jr.nextSeq-1, sh.counters(nil), model); err != nil {
		return err
	}
	if err := sh.jr.reset(); err != nil {
		return err
	}
	sh.srv.compactions.Add(1)
	return nil
}

// counters exports the envelope counters of the shard's subscribers, or of
// those keep accepts when it is not nil.
func (sh *shard) counters(keep func(imsi string) bool) []CounterEntry {
	var entries []CounterEntry
	for imsi, e := range sh.envs {
		if keep != nil && !keep(imsi) {
			continue
		}
		send, recv := e.Counters()
		entries = append(entries, CounterEntry{IMSI: imsi, Send: send, Recv: recv})
	}
	return entries
}

// env returns (creating on first use) the subscriber's envelope. Only the
// shard worker calls it, so envelope crypto stays single-threaded.
func (sh *shard) env(imsi string) *crypto5g.Envelope {
	e, ok := sh.envs[imsi]
	if !ok {
		e = NewSubscriberEnvelope(sh.srv.cfg.MasterKey, imsi)
		sh.envs[imsi] = e
	}
	return e
}

// handle serves one job and returns its reply plus the journal record that
// must be durable before the reply may be released (kind 0 when the job
// changed no durable state — duplicates, queries, errors).
func (sh *shard) handle(j job) (Frame, journalRec) {
	switch j.typ {
	case TUpload:
		return sh.handleRecord(jUpload, j)
	case TReport:
		return sh.handleRecord(jReport, j)
	case TCounterInstall:
		return sh.handleRecord(jInstall, j)
	case TQuery:
		return sh.handleQuery(j), journalRec{}
	case TMapPrepare:
		return sh.handleCollect(j), journalRec{}
	default:
		return sh.srv.errFrame(fmt.Errorf("fleet: shard got frame %v", j.typ)), journalRec{}
	}
}

// handleRecord applies an upload, a report or a counter install and
// journals it. Delivery is at-least-once (the client retries lost
// responses), and the envelope counter makes the fold exactly-once: a
// replayed counter means this blob was already applied, so the duplicate
// is acknowledged without applying or journaling it again.
func (sh *shard) handleRecord(kind byte, j job) (Frame, journalRec) {
	if sh.degraded {
		return sh.srv.errFrame(errors.New("fleet: shard degraded after journal failure")), journalRec{}
	}
	rows, err := sh.apply(kind, j.imsi, j.body)
	switch {
	case errors.Is(err, crypto5g.ErrReplay):
		sh.srv.duplicates.Add(1)
		return Frame{Type: TAck}, journalRec{}
	case err != nil:
		return sh.srv.errFrame(err), journalRec{}
	case kind == jUpload:
		sh.srv.uploads.Add(1)
		sh.srv.recordRows.Add(uint64(rows))
	case kind == jReport:
		sh.srv.reports.Add(1)
	}
	return Frame{Type: TAck}, journalRec{kind: kind, imsi: j.imsi, body: j.body}
}

// apply changes the shard by one journal record. It is the one rule for
// what a record does: the live handlers call it before journaling the
// record, and recovery calls it for every record past the snapshot, so
// replay rebuilds the state the acks promised. An upload or report opens
// with the subscriber's envelope, which advances its receive counter
// (ErrReplay when the counter is already past it); an upload's records
// then fold into the model, and a report is only validated — the
// in-process infrastructure plugin owns policy repair. A counter install
// raises the counters it carries. rows is the number of record rows an
// upload folded. (Outside apply the shard changes only by a snapshot load,
// by a query's seal, which advances the unjournaled downlink send counter,
// and by recovery's skip of that counter.)
func (sh *shard) apply(kind byte, imsi string, body []byte) (rows int, err error) {
	switch kind {
	case jUpload, jReport:
		plain, err := sh.env(imsi).Open(crypto5g.Uplink, body)
		if err != nil {
			return 0, recordErr(kind, imsi, err)
		}
		if kind == jReport {
			if _, err := report.Unmarshal(plain); err != nil {
				return 0, recordErr(kind, imsi, err)
			}
			return 0, nil
		}
		recs, err := core.UnmarshalRecords(plain)
		if err != nil {
			return 0, recordErr(kind, imsi, err)
		}
		sh.mu.Lock()
		sh.model.Merge(recs)
		sh.mu.Unlock()
		return recs.Rows(), nil
	case jInstall:
		// Max semantics keep an install idempotent under controller retries
		// and journal replay.
		entries, err := ParseCounterTable(body)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			installCounters(sh.env(e.IMSI), e)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("fleet: unknown record kind %d", kind)
	}
}

// recordErr names the upload or report a failed open or decode belongs to.
func recordErr(kind byte, imsi string, err error) error {
	what := "upload"
	if kind == jReport {
		what = "report"
	}
	return fmt.Errorf("fleet: %s from %s: %w", what, imsi, err)
}

// handleCollect gathers the counter state of every subscriber this node
// is about to hand off under the prepared map (rebalance phase 1, shard
// slice).
func (sh *shard) handleCollect(j job) Frame {
	nodeID := sh.srv.cfg.NodeID
	moving := sh.counters(func(imsi string) bool { return j.newMap.OwnerID(imsi) != nodeID })
	return Frame{Type: TPrepared, Payload: AppendCounterTable(nil, moving)}
}

// handleQuery answers the model-push leg: merge the cause's evidence
// across all shards, pick the argmax action (core.Records.Best, which
// Learner.Best uses too), and seal the suggestion downlink with the asking
// device's envelope. No evidence → empty TSuggest (the device keeps
// trialing, Algorithm 1's abstain arm).
func (sh *shard) handleQuery(j job) Frame {
	sh.srv.queries.Add(1)
	merged := core.Records{}
	for _, other := range sh.srv.shards {
		other.mu.Lock()
		for a, n := range other.model[j.cause] {
			merged.Add(j.cause, a, n)
		}
		other.mu.Unlock()
	}
	best, ok := merged.Best(j.cause)
	if !ok {
		return Frame{Type: TSuggest}
	}
	sealed, err := sh.env(j.imsi).Seal(crypto5g.Downlink, SuggestPayload(j.cause, best))
	if err != nil {
		return sh.srv.errFrame(err)
	}
	sh.srv.suggestions.Add(1)
	return Frame{Type: TSuggest, Payload: sealed}
}
