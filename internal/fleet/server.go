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
	"github.com/seed5g/seed/internal/report"
)

// ServerConfig parameterizes the aggregation server.
type ServerConfig struct {
	// Addr is the TCP listen address (":0" picks a free port).
	Addr string
	// Shards is the number of shards the device population is split
	// over. A device's envelope state lives on its FNV-hash home shard and
	// is served only under that shard's lock (the crypto5g key states are
	// not concurrency-safe), so the connections fold distinct shards in
	// parallel, and each shard group-commits its own journal.
	Shards int
	// JournalDir, when set, enables the durable tier: each shard keeps an
	// append-only journal of acked sealed envelopes (group-commit fsync)
	// plus a compaction snapshot in this directory. A SIGKILL'd server
	// replays to its exact pre-crash model — including the envelope
	// counters that dedup client retries — on the next Start. Unset, the
	// server keeps its state in memory only.
	JournalDir string
	// ForceEmpty quarantines corrupt durable state and starts empty
	// instead of refusing startup. Never the default: a silent empty
	// model is indistinguishable from data loss.
	ForceEmpty bool
	// MasterKey derives per-subscriber envelope keys (SubscriberKey).
	MasterKey [16]byte
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// compactBytes, when a test sets it, replaces compactAt: a script of a
	// few hundred uploads then compacts several times.
	compactBytes int64
}

func (c *ServerConfig) withDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7316"
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.compactBytes <= 0 {
		c.compactBytes = compactAt
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

const (
	// queueDepth bounds the requests waiting for one shard's lock. A
	// request that finds queueDepth already waiting is answered
	// TRetryAfter instead of joining them — explicit backpressure,
	// mirroring the paper's congestion diagnosis. A connection has at most
	// one request waiting, so a shard sheds load only when more than
	// queueDepth+1 connections contend for it.
	queueDepth = 256
	// retryAfterHint is the wait hint returned on backpressure.
	retryAfterHint = 25 * time.Millisecond
	// compactAt is the per-shard journal size that triggers snapshot
	// compaction.
	compactAt = 4 << 20
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
	// Dropped counts requests read off a connection but never answered.
	// A connection answers every frame it has read before it closes, even
	// while the server drains, so anything other than 0 is a bug (the CI
	// smoke job asserts it).
	Dropped uint64 `json:"dropped"`
	// Journal durability counters (zero when JournalDir is unset).
	JournalRecords  uint64 `json:"journal_records"`
	JournalSyncs    uint64 `json:"journal_syncs"`
	Compactions     uint64 `json:"compactions"`
	ReplayedRecords uint64 `json:"replayed_records"`
	// Coalescing counter: Responses response frames left in Flushes
	// connection writes.
	Responses uint64 `json:"responses"`
	Flushes   uint64 `json:"flushes"`
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
	connWG   sync.WaitGroup

	// syncHook, when a test sets it before Start, runs in the committing
	// goroutine right before each journal fsync, with the shard's index.
	syncHook func(shard int)

	nConns, uploads, duplicates, recordRows atomic.Uint64
	reports, queries, suggestions           atomic.Uint64
	backpressured, nErrors, dropped         atomic.Uint64
	jRecords, jSyncs, compactions           atomic.Uint64
	replayed, responses, flushes            atomic.Uint64
}

// shard owns the envelope and model state for its slice of the device
// population; apply is how a journal record changes either. lock guards
// the envelopes, the journal tail, degraded and committing: every request
// of the shard's devices is served under it. mu guards model alone and is
// a leaf lock: queries and model pulls take it across shards, holding at
// most their own shard's lock.
type shard struct {
	idx  int
	srv  *Server
	lock sync.Mutex
	// waiting counts the requests waiting for lock (queueDepth bounds it).
	waiting atomic.Int64
	mu      sync.Mutex
	// model is the fold of every upload the shard applied: per cause, the
	// success count of each action (Algorithm 1's crowd-sourced table).
	model core.Records
	envs  map[string]*crypto5g.Envelope
	// master is the fleet master key, expanded once per server: each shard
	// holds a copy, which shares the expansion, and derives a device's
	// key with it on first contact.
	master crypto5g.CMACKey
	// plain receives the plaintext apply opens, for the next apply to
	// reuse.
	plain []byte
	jr    *journal // nil when JournalDir is unset
	// degraded is set when a journal write or fsync failed: the shard
	// stops acknowledging durable work rather than acking state it cannot
	// promise to keep.
	degraded bool
	// committing, guarded by lock, is set while one goroutine writes and
	// fsyncs the journal, and closed when it is done; synced is the
	// highest sequence on disk.
	committing chan struct{}
	synced     atomic.Uint64
}

// NewServer creates an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	cfg.withDefaults()
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	var master crypto5g.CMACKey
	if err := master.SetKey(cfg.MasterKey[:]); err != nil {
		panic(err) // a 16-byte key cannot fail
	}
	for i := range cfg.Shards {
		s.shards = append(s.shards, &shard{idx: i, srv: s, model: core.Records{},
			envs: make(map[string]*crypto5g.Envelope), master: master})
	}
	return s
}

// Start replays the journal when there is one, binds the listener, and
// launches the accept loop.
func (s *Server) Start() error {
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
		ln.Addr(), s.cfg.Shards, queueDepth)
	return nil
}

// serve launches the accept loop on ln.
func (s *Server) serve(ln net.Listener) {
	s.ln = ln
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
		sh.synced.Store(rec.NextSeq - 1)
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
	if n := s.replayed.Load(); n > 0 {
		s.cfg.Logf("seedfleetd: crash recovery replayed %d journal records in %s", n, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

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
		JournalRecords:  s.jRecords.Load(),
		JournalSyncs:    s.jSyncs.Load(),
		Compactions:     s.compactions.Load(),
		ReplayedRecords: s.replayed.Load(),
		Responses:       s.responses.Load(),
		Flushes:         s.flushes.Load(),
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

// stop ends service: no new connections, and every open one told to
// finish by stopConn; it returns when the last has answered (or failed to
// write) every request it read and committed what they journaled.
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
}

// Shutdown drains gracefully: stop accepting, answer every request already
// read off a connection, compact the journal when there is one (the next
// Start then replays nothing), and return.
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
	s.cfg.Logf("seedfleetd: drain complete (uploads=%d duplicates=%d reports=%d queries=%d backpressured=%d errors=%d dropped=%d records_per_fsync=%.2f responses_per_flush=%.2f)",
		st.Uploads, st.Duplicates, st.Reports, st.Queries, st.Backpressured, st.Errors, st.Dropped,
		Ratio(st.JournalRecords, st.JournalSyncs), Ratio(st.Responses, st.Flushes))
	return err
}

// Kill abandons the server without compaction, as SIGKILL would: the
// listener and every connection close hard, and requests already read may
// land in the journal unanswered (after the fsync, before the ack: the
// window crash recovery must cover). Tests use it for in-process SIGKILL.
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

const (
	// connPipelineDepth bounds the replies one connection gathers before
	// it writes them; past it the connection commits and writes before it
	// reads on, and TCP flow control pushes back on the sender.
	connPipelineDepth = 128
	// flushBytes is the size at which gathered replies are written out
	// even though more requests are buffered.
	flushBytes = 32 << 10
	// readBufSize is a connection's read buffer: a full pipeline of
	// uploads (each well under 128 bytes) arrives in one read and folds
	// before one commit.
	readBufSize = 16 << 10
)

// serverConn is one connection's reply state: the replies it holds until
// the journal records they depend on are committed.
type serverConn struct {
	srv     *Server
	c       net.Conn
	replies []Frame
	// tails holds, per shard, its journal tail when the connection last
	// served there: on disk before the replies leave, so that even a
	// duplicate's ack waits for the record it duplicates.
	tails []uint64
	size  int // encoded bytes of replies
	out   []byte
	// in holds the frame being served, and arena the sealed suggestions
	// of the replies gathered, which flush empties. Like out, each is
	// reused while its capacity stays within maxKeptBuf.
	in, arena []byte
}

// maxKeptBuf is the largest buffer a connection keeps for its next use: a
// model pull or an outsized frame does not pin its buffer.
const maxKeptBuf = 4 * flushBytes

// handleConn serves one connection on one goroutine: it serves every
// buffered frame in request order, each subscriber request under its home
// shard's lock, and writes the replies once no complete frame is buffered
// or flushBytes or connPipelineDepth of them have gathered.
func (s *Server) handleConn(conn net.Conn) {
	sc := &serverConn{srv: s, c: conn, tails: make([]uint64, len(s.shards))}
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		if !frameBuffered(br) {
			sc.flush()
			// The next read reaches the socket. Shutdown stores draining
			// before it expires the deadline, so looking after arming
			// cannot miss it; frames already read are still served.
			_ = conn.SetReadDeadline(time.Now().Add(readTimeout))
			if s.draining.Load() {
				break
			}
		}
		f, in, err := readFrame(br, DefaultMaxFrame, sc.in)
		if err != nil {
			break // clean close, idle timeout, drain, or protocol error
		}
		r := sc.request(f)
		sc.in = keep(in)
		sc.replies = append(sc.replies, r)
		sc.size += headerLen + len(r.Payload)
		if len(sc.replies) >= connPipelineDepth || sc.size >= flushBytes {
			sc.flush()
		}
	}
	sc.flush()
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	_ = conn.Close()
	s.connWG.Done()
}

// flush commits every journal record the gathered replies depend on, the
// shards side by side, and writes the replies in one Write. A write error
// closes the connection, which stops its reads; buffered frames are served.
func (sc *serverConn) flush() {
	if len(sc.replies) == 0 {
		return
	}
	s := sc.srv
	if err := s.commitTails(sc.tails); err != nil {
		// No ack of the flush is promised, whether its request journaled a
		// record or duplicates one: clients retry.
		for i, r := range sc.replies {
			if r.Type == TAck {
				sc.replies[i] = s.errFrame(fmt.Errorf("fleet: journal write failed: %w", err))
			}
		}
	}
	clear(sc.tails)
	for _, r := range sc.replies {
		sc.out = AppendFrame(sc.out, r)
	}
	s.responses.Add(uint64(len(sc.replies)))
	s.flushes.Add(1)
	_ = sc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := sc.c.Write(sc.out); err != nil {
		_ = sc.c.Close()
	}
	clear(sc.replies) // keep no payload alive
	sc.replies, sc.size = sc.replies[:0], 0
	sc.out, sc.arena = keep(sc.out), keep(sc.arena)
}

// keep empties buf for reuse, or drops it when it outgrew maxKeptBuf.
func keep(buf []byte) []byte {
	if cap(buf) > maxKeptBuf {
		return nil
	}
	return buf[:0]
}

// request serves one request frame: admin frames and errors inline, and
// sealed-envelope work and queries under the device's home shard's lock,
// or TRetryAfter at once when queueDepth requests already wait for it.
// The reply keeps nothing of f: the journal and apply copy what they keep.
func (sc *serverConn) request(f Frame) Frame {
	s := sc.srv
	var (
		imsi, body []byte
		c          cause.Cause
		err        error
	)
	switch f.Type {
	case TUpload, TReport:
		imsi, body, err = parseSealed(f.Payload)
	case TQuery:
		imsi, c, err = parseQuery(f.Payload)
	default:
		return s.admin(f)
	}
	if err != nil {
		return s.errFrame(err)
	}
	sh := s.shardOf(imsi)
	if sh.waiting.Add(1) > queueDepth {
		sh.waiting.Add(-1)
		s.backpressured.Add(1)
		return s.retryAfter()
	}
	sh.lock.Lock()
	sh.waiting.Add(-1)
	var r Frame
	switch f.Type {
	case TUpload:
		r = sh.handleRecord(jUpload, imsi, body)
	case TReport:
		r = sh.handleRecord(jReport, imsi, body)
	default:
		r, sc.arena = sh.handleQuery(sc.arena, imsi, c)
	}
	if sh.jr != nil {
		sc.tails[sh.idx] = sh.jr.nextSeq - 1
	}
	sh.lock.Unlock()
	return r
}

func (s *Server) retryAfter() Frame {
	return Frame{Type: TRetryAfter, Payload: RetryAfterPayload(uint32(retryAfterHint / time.Millisecond))}
}

// admin answers a model or stats pull inline; any other frame type is a
// TErr, and the connection serves on.
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
	default:
		return s.errFrame(fmt.Errorf("fleet: unexpected request frame %v", f.Type))
	}
}

// shardOf returns the home shard of the device with this IMSI.
func (s *Server) shardOf(imsi []byte) *shard {
	return s.shards[fnv32a(imsi)%uint32(len(s.shards))]
}

// fnv32a is hash/fnv's 32-bit FNV-1a over the bytes of s, without the
// hasher: shard placement, and with it every existing journal directory,
// depends on these exact values.
func fnv32a[S ~string | ~[]byte](s S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func (s *Server) errFrame(err error) Frame {
	s.nErrors.Add(1)
	return Frame{Type: TErr, Payload: []byte(err.Error())}
}

// --- shard -------------------------------------------------------------

// errDegraded fails the commits a degraded shard can no longer make.
var errDegraded = errors.New("fleet: shard degraded after journal failure")

// commitTails commits every shard i through seqs[i] and returns what
// failed. Each shard fsyncs its own file, so the commits beyond the first
// unsynced one run side by side with it, on goroutines of their own.
func (s *Server) commitTails(seqs []uint64) error {
	var wg *sync.WaitGroup
	var errs []error
	lead := -1
	for i, seq := range seqs {
		switch {
		case s.shards[i].synced.Load() >= seq:
		case lead < 0:
			lead = i
		default:
			if wg == nil {
				wg, errs = new(sync.WaitGroup), make([]error, len(seqs))
			}
			wg.Add(1)
			go func(wg *sync.WaitGroup, sh *shard, seq uint64, err *error) {
				defer wg.Done()
				*err = sh.commit(seq)
			}(wg, s.shards[i], seq, &errs[i])
		}
	}
	var err error
	if lead >= 0 {
		err = s.shards[lead].commit(seqs[lead])
	}
	if wg != nil {
		wg.Wait()
		err = errors.Join(err, errors.Join(errs...))
	}
	return err
}

// commit returns once the shard's journal is on disk through seq
// (leader/follower group commit). The first goroutine to find seq unsynced
// while no commit runs leads one: it writes every pending record in one
// write and fsyncs once, while other connections fold into the next group.
// The goroutines that find a commit running wait on the channel it closes,
// then find seq covered or lead the next. A failed write or fsync degrades
// the shard and fails every later commit of an unsynced seq. Past
// compactAt the leader also commits what folded meanwhile and compacts.
func (sh *shard) commit(seq uint64) error {
	for sh.synced.Load() < seq {
		sh.lock.Lock()
		// A commit may have ended since the check above.
		if wait := sh.committing; wait != nil || sh.synced.Load() >= seq {
			sh.lock.Unlock()
			if wait != nil {
				<-wait
			}
			continue
		}
		done := make(chan struct{})
		sh.committing = done
		err := sh.writePending(true)
		if err == nil && sh.jr.size > sh.srv.cfg.compactBytes && sh.writePending(false) == nil {
			if err := sh.compact(); err != nil {
				sh.srv.cfg.Logf("seedfleetd: shard %d compaction: %v", sh.idx, err)
			}
		}
		sh.committing = nil
		sh.lock.Unlock()
		close(done)
		return err
	}
	return nil
}

// writePending writes and fsyncs the records folded since the last
// commit; the caller leads the commit and holds sh.lock. With unlock, it is
// released for the write and the fsync, so folding goes on meanwhile.
func (sh *shard) writePending(unlock bool) error {
	if sh.degraded {
		return errDegraded
	}
	jr := sh.jr
	if jr.n == 0 {
		return nil
	}
	buf, n := jr.take()
	last := jr.nextSeq - 1
	if unlock {
		sh.lock.Unlock()
	}
	err := jr.write(buf)
	if err == nil {
		if sh.srv.syncHook != nil {
			sh.srv.syncHook(sh.idx)
		}
		err = jr.sync()
	}
	if unlock {
		sh.lock.Lock()
	}
	if err != nil {
		sh.srv.cfg.Logf("seedfleetd: FATAL shard %d journal write: %v — shard degraded, refusing new acks", sh.idx, err)
		sh.degraded = true
		return err
	}
	sh.synced.Store(last)
	sh.srv.jRecords.Add(uint64(n))
	sh.srv.jSyncs.Add(1)
	return nil
}

// compact writes the shard snapshot (counters + model, covering every
// journaled record) and truncates the journal. Crash-ordering: the
// snapshot's rename is on disk BEFORE the truncate, and replay skips
// seq <= snapshot seq, so dying between the two double-folds nothing.
func (sh *shard) compact() error {
	sh.mu.Lock()
	model := MarshalModel(sh.model)
	sh.mu.Unlock()
	if err := writeShardSnapshot(sh.srv.cfg.JournalDir, sh.idx, sh.jr.nextSeq-1, sh.counters(), model); err != nil {
		return err
	}
	if err := sh.jr.reset(); err != nil {
		return err
	}
	sh.srv.compactions.Add(1)
	return nil
}

// counters exports the envelope counters of the shard's subscribers.
func (sh *shard) counters() []CounterEntry {
	var entries []CounterEntry
	for imsi, e := range sh.envs {
		send, recv := e.Counters()
		entries = append(entries, CounterEntry{IMSI: imsi, Send: send, Recv: recv})
	}
	return entries
}

// env returns (creating on first use) the subscriber's envelope. Callers
// hold sh.lock, so envelope crypto stays single-threaded. Only first
// contact allocates: it builds the envelope NewSubscriberEnvelope builds,
// deriving K = SubscriberKey(master, IMSI) with the shard's expanded
// master key, which leaves three AES key expansions per new device (K's
// and the envelope's two), and keeps the IMSI as a string.
func (sh *shard) env(imsi []byte) *crypto5g.Envelope {
	e, ok := sh.envs[string(imsi)]
	if !ok {
		e = core.NewChannelEnvelope(sh.master.Sum(imsi))
		sh.envs[string(imsi)] = e
	}
	return e
}

// handleRecord applies an upload or a report and journals it. Delivery is at-least-once (the client retries lost
// responses), and the envelope counter makes the fold exactly-once: a
// replayed counter means this blob was already applied, so the duplicate
// is acknowledged without applying or journaling it again. A journaled
// shard adds the record to the journal's pending group. The caller holds
// sh.lock.
func (sh *shard) handleRecord(kind byte, imsi, body []byte) Frame {
	if sh.degraded {
		return sh.srv.errFrame(errDegraded)
	}
	rows, err := sh.apply(kind, imsi, body)
	switch {
	case errors.Is(err, crypto5g.ErrReplay):
		sh.srv.duplicates.Add(1)
		return Frame{Type: TAck}
	case err != nil:
		return sh.srv.errFrame(err)
	case kind == jUpload:
		sh.srv.uploads.Add(1)
		sh.srv.recordRows.Add(uint64(rows))
	case kind == jReport:
		sh.srv.reports.Add(1)
	}
	if sh.jr != nil {
		sh.jr.add(journalRec{kind: kind, imsi: imsi, body: body})
	}
	return Frame{Type: TAck}
}

// apply changes the shard by one journal record. It is the one rule for
// what a record does: the live handlers call it before journaling the
// record, and recovery calls it for every record past the snapshot, so
// replay rebuilds the state the acks promised. An upload or report opens
// with the subscriber's envelope, which advances its receive counter
// (ErrReplay when the counter is already past it) and leaves the
// plaintext in sh.plain; an upload's rows then fold straight into the
// model (core.Records.AddRows, all or none of them), and a report is only
// validated — the in-process infrastructure plugin owns policy repair. A
// legacy counter install, which only replay meets, raises the counters it
// carries. rows is the number of record rows an upload folded. (Outside
// apply the shard changes only by a snapshot load, by a query's seal,
// which advances the unjournaled downlink send counter, and by recovery's
// skip of that counter.)
func (sh *shard) apply(kind byte, imsi, body []byte) (rows int, err error) {
	switch kind {
	case jUpload, jReport:
		plain, err := sh.env(imsi).AppendOpen(sh.plain[:0], crypto5g.Uplink, body)
		sh.plain = plain[:0]
		if err != nil {
			return 0, recordErr(kind, imsi, err)
		}
		if kind == jReport {
			if _, err := report.Unmarshal(plain); err != nil {
				return 0, recordErr(kind, imsi, err)
			}
			return 0, nil
		}
		sh.mu.Lock()
		rows, err = sh.model.AddRows(plain, 2) // an upload's 2-byte counts, as core.UnmarshalRecords reads them
		sh.mu.Unlock()
		if err != nil {
			return 0, recordErr(kind, imsi, err)
		}
		return rows, nil
	case jInstall:
		// Written by the retired multi-node tier's rebalance; a journal from
		// that time still holds them. Max semantics keep replay idempotent.
		entries, err := ParseCounterTable(body)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			installCounters(sh.env([]byte(e.IMSI)), e)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("fleet: unknown record kind %d", kind)
	}
}

// recordErr names the upload or report a failed open or decode belongs to.
func recordErr(kind byte, imsi []byte, err error) error {
	what := "upload"
	if kind == jReport {
		what = "report"
	}
	return fmt.Errorf("fleet: %s from %s: %w", what, imsi, err)
}

// handleQuery answers the model-push leg: sum the cause's evidence across
// all shards, pick its argmax (core.Tally, whose tie-break Records.Best
// and Learner.Best share), and seal the suggestion downlink with the
// asking device's envelope, appended to arena: the reply's payload lives
// there until the connection flushes. No evidence → empty TSuggest (the
// device keeps trialing, Algorithm 1's abstain arm).
func (sh *shard) handleQuery(arena, imsi []byte, c cause.Cause) (Frame, []byte) {
	sh.srv.queries.Add(1)
	var t core.Tally
	for _, other := range sh.srv.shards {
		other.mu.Lock()
		t.Add(other.model, c)
		other.mu.Unlock()
	}
	best, ok := t.Best()
	if !ok {
		return Frame{Type: TSuggest}, arena
	}
	var msg [suggestLen]byte
	start := len(arena)
	arena = sh.env(imsi).AppendSeal(arena, crypto5g.Downlink, appendSuggest(msg[:0], c, best))
	sh.srv.suggestions.Add(1)
	return Frame{Type: TSuggest, Payload: arena[start:len(arena):len(arena)]}, arena
}
