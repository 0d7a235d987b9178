package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/seed5g/seed/internal/cause"
)

// ClientConfig parameterizes the fleet client.
type ClientConfig struct {
	// Addr is the server address.
	Addr string
	// Conns is the number of connections to Addr. They are dialed lazily
	// and each is shared by any number of concurrent callers: a caller
	// joins a connection whose next write is still forming, and only when
	// none is takes the next connection round-robin.
	Conns int
	// Seed seeds the backoff jitter (deterministic load patterns).
	Seed int64
}

func (c *ClientConfig) withDefaults() {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// requestTimeout bounds one attempt's wait for its response, and each
	// write.
	requestTimeout = 10 * time.Second
	// maxRetries is the number of attempts per request beyond the first,
	// covering transport errors and TRetryAfter backpressure.
	maxRetries = 8
	// backoffBase and backoffMax shape the jittered exponential backoff
	// after transport errors; TRetryAfter responses honor the server's
	// wait hint (plus jitter) instead.
	backoffBase = 5 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
)

// Client is the fleet-protocol client of one server. Every request it
// makes runs through one loop, do, with retry and backpressure handling.
// Any number of callers share its Conns connections. Callers that arrive
// together leave together: a caller queues its request on a connection
// whose writer is still gathering, so the callers one burst of responses
// wakes share one write; see muxConn.
type Client struct {
	cfg     ClientConfig
	closed  atomic.Bool
	readers sync.WaitGroup // one reader goroutine per live connection
	slots   []connSlot
	next    atomic.Uint32 // round-robin cursor over slots, when no write is forming

	// gatherHook, when a test sets it before the first request, runs in
	// every writer's gathering window, while its connection is forming.
	gatherHook func()

	rngMu sync.Mutex
	rng   *rand.Rand

	retries, redials, writes, frames atomic.Uint64
}

// connSlot is one of the client's Conns positions: the live connection,
// replaced by a fresh dial after it breaks.
type connSlot struct {
	cur     atomic.Pointer[muxConn]
	mu      sync.Mutex
	dialing chan struct{} // non-nil while one caller dials; closed when it is done
}

// live returns the slot's connection unless it is missing or broken.
func (sl *connSlot) live() *muxConn {
	if mc := sl.cur.Load(); mc != nil && !mc.dead.Load() {
		return mc
	}
	return nil
}

// muxConn is one multiplexed connection. A caller appends its frame to pend
// and queues a waiter under mu; whoever finds no write in progress becomes
// the writer: it marks the connection forming, yields once, and writes
// everything queued so far. While it is forming, Client.conn sends every
// new caller here rather than round-robin, so they share that write;
// callers arriving during the write itself ride the next one. A lone
// caller still gets one immediate write, and there is no timer and nothing
// to tune. The reader goroutine hands each response to the oldest waiter:
// requests and responses are matched by order alone, so an error on the
// stream fails every request in flight on it.
type muxConn struct {
	cl      *Client
	c       net.Conn
	dead    atomic.Bool // err != nil, readable without mu
	forming atomic.Bool // a writer has yielded and not yet taken pend

	mu          sync.Mutex
	err         error  // set once, when the connection breaks
	pend, spare []byte // frames awaiting the next write; the buffer of the last one
	writing     bool
	head, tail  *waiter // requests in flight, oldest first
}

// waiter is one in-flight request's place in the response order.
type waiter struct {
	next      *waiter
	expiry    time.Time
	ch        chan muxResult // capacity 1, one send per use
	abandoned bool           // the caller left: recycle when the response arrives
	answered  bool           // off the queue, result in ch
}

type muxResult struct {
	f   Frame
	err error
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan muxResult, 1)} }}

// ErrServer wraps a TErr response.
var ErrServer = errors.New("fleet: server error")

// ErrClientClosed is returned by requests made on or cut short by Close.
var ErrClientClosed = errors.New("fleet: client closed")

// NewClient creates a client; connections are dialed on first use.
func NewClient(cfg ClientConfig) *Client {
	cfg.withDefaults()
	return &Client{
		cfg:   cfg,
		slots: make([]connSlot, cfg.Conns),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Close tears down every connection, failing the requests in flight on
// them, and returns once the reader goroutines have exited.
func (cl *Client) Close() {
	cl.closed.Store(true)
	for i := range cl.slots {
		sl := &cl.slots[i]
		sl.mu.Lock()
		if mc := sl.cur.Load(); mc != nil {
			mc.mu.Lock()
			mc.failLocked(ErrClientClosed)
			mc.mu.Unlock()
		}
		sl.mu.Unlock()
	}
	cl.readers.Wait()
}

// conn returns a live connection whose next write is still forming, so that the caller shares it. Failing that, it returns the next
// slot's connection round-robin, dialing when the slot is empty or its
// connection broke. One caller dials; the others wait for it or for their
// own ctx.
func (cl *Client) conn(ctx context.Context) (*muxConn, error) {
	for i := range cl.slots {
		if mc := cl.slots[i].live(); mc != nil && mc.forming.Load() {
			return mc, nil
		}
	}
	sl := &cl.slots[cl.next.Add(1)%uint32(len(cl.slots))]
	for {
		if mc := sl.live(); mc != nil {
			return mc, nil
		}
		sl.mu.Lock()
		if cl.closed.Load() {
			sl.mu.Unlock()
			return nil, ErrClientClosed
		}
		if mc := sl.live(); mc != nil { // redialed while this caller waited for mu
			sl.mu.Unlock()
			return mc, nil
		}
		if wait := sl.dialing; wait != nil {
			sl.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done := make(chan struct{})
		sl.dialing = done
		sl.mu.Unlock()

		d := net.Dialer{Timeout: dialTimeout}
		c, err := d.DialContext(ctx, "tcp", cl.cfg.Addr)
		sl.mu.Lock()
		sl.dialing = nil
		var mc *muxConn
		switch {
		case err != nil:
		case cl.closed.Load():
			_ = c.Close()
			err = ErrClientClosed
		default:
			mc = cl.newMuxConn(c)
			sl.cur.Store(mc)
		}
		sl.mu.Unlock()
		close(done)
		return mc, err
	}
}

// newMuxConn starts multiplexing over c.
func (cl *Client) newMuxConn(c net.Conn) *muxConn {
	mc := &muxConn{cl: cl, c: c}
	cl.readers.Add(1)
	go mc.readLoop()
	return mc
}

// roundTrip queues req on the connection, writes what is queued unless a
// write is in progress, and waits for the response the reader hands over.
func (mc *muxConn) roundTrip(ctx context.Context, req Frame) (Frame, error) {
	cl := mc.cl
	w := waiterPool.Get().(*waiter)
	w.expiry = time.Now().Add(requestTimeout)
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		waiterPool.Put(w)
		return Frame{}, err
	}
	if mc.head == nil {
		mc.head = w
		// The reader is idle, without a deadline: this request is the oldest.
		_ = mc.c.SetReadDeadline(w.expiry)
	} else {
		mc.tail.next = w
	}
	mc.tail = w
	mc.pend = AppendFrame(mc.pend, req)
	cl.frames.Add(1)
	if !mc.writing {
		mc.writing = true
		for len(mc.pend) > 0 && mc.err == nil {
			// Yield once before taking the buffer: callers that are runnable
			// right now (a burst of responses just woke them) find the
			// connection forming, queue their frames first and share this
			// write. Alone, it returns at once.
			mc.forming.Store(true)
			mc.mu.Unlock()
			if cl.gatherHook != nil {
				cl.gatherHook()
			}
			runtime.Gosched()
			mc.mu.Lock()
			mc.forming.Store(false)
			buf := mc.pend
			mc.pend = mc.spare[:0]
			mc.mu.Unlock()
			_ = mc.c.SetWriteDeadline(time.Now().Add(requestTimeout))
			_, err := mc.c.Write(buf)
			cl.writes.Add(1)
			mc.mu.Lock()
			mc.spare = buf
			if err != nil {
				mc.failLocked(err)
			}
		}
		mc.writing = false
	}
	mc.mu.Unlock()

	select {
	case r := <-w.ch:
		w.answered = false
		waiterPool.Put(w)
		return r.f, r.err
	case <-ctx.Done():
	}
	// Cancelled. The request stays on the wire and keeps its place in the
	// response order; the reader drops its response and recycles the slot.
	// (A result that raced the cancellation is left to the collector.)
	mc.mu.Lock()
	w.abandoned = !w.answered
	mc.mu.Unlock()
	return Frame{}, ctx.Err()
}

// readLoop hands every response to the oldest request in flight. Its read
// deadline is that request's expiry, so requestTimeout needs no timer per
// request; an expiry breaks the connection, because the responses behind
// the missing one could no longer be matched.
func (mc *muxConn) readLoop() {
	defer mc.cl.readers.Done()
	br := bufio.NewReader(mc.c)
	mc.mu.Lock()
	for mc.err == nil {
		if !frameBuffered(br) {
			var deadline time.Time // idle: wait for the next request
			if mc.head != nil {
				deadline = mc.head.expiry
			}
			_ = mc.c.SetReadDeadline(deadline)
		}
		mc.mu.Unlock()
		f, err := ReadFrame(br, DefaultMaxFrame)
		mc.mu.Lock()
		w := mc.head
		switch {
		case err != nil:
			mc.failLocked(err)
		case w == nil:
			mc.failLocked(fmt.Errorf("fleet: unsolicited %v response", f.Type))
		default:
			if mc.head = w.next; mc.head == nil {
				mc.tail = nil
			}
			w.answer(muxResult{f: f})
		}
	}
	mc.mu.Unlock()
}

// answer hands r to the waiter's caller, or recycles the waiter when the
// caller has left. Called with the connection's mu held.
func (w *waiter) answer(r muxResult) {
	w.next = nil
	if w.abandoned {
		w.abandoned = false
		waiterPool.Put(w)
		return
	}
	w.answered = true
	w.ch <- r
}

// failLocked breaks the connection once: every request in flight fails
// with err (into its caller's retry loop) and the slot redials.
func (mc *muxConn) failLocked(err error) {
	if mc.err != nil {
		return
	}
	mc.err = err
	mc.dead.Store(true)
	_ = mc.c.Close()
	if !errors.Is(err, ErrClientClosed) {
		mc.cl.redials.Add(1)
	}
	for w := mc.head; w != nil; {
		next := w.next
		w.answer(muxResult{err: err})
		w = next
	}
	mc.head, mc.tail = nil, nil
}

// do is the client's one request loop: up to maxRetries+1 attempts, each
// one round trip to Addr. A transport error backs off exponentially with
// jitter; TRetryAfter waits the server's hint plus jitter; TErr fails at
// once (the request itself is bad). After the last attempt the loop
// returns without its wait: nothing follows it. op names the request in
// errors. A cancelled or expired ctx returns promptly: it aborts backoff
// sleeps, dials, waits for another caller's dial, and the wait for a
// response (the request's slot in the response order is abandoned, the
// connection stays good). Only a caller that is in the middle of writing
// the queued frames finishes that write first.
func (cl *Client) do(ctx context.Context, op string, req Frame) (Frame, error) {
	const tries = maxRetries + 1
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return Frame{}, fmt.Errorf("fleet: %s cancelled after %d attempts: %w (last error: %v)", op, attempt, err, lastErr)
			}
			return Frame{}, err
		}
		if attempt > 0 {
			cl.retries.Add(1)
		}
		var resp Frame
		mc, err := cl.conn(ctx)
		if err == nil {
			resp, err = mc.roundTrip(ctx, req)
		}
		var wait time.Duration
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return Frame{}, err
			}
			lastErr = err
			if ctx.Err() == nil {
				wait = cl.backoff(attempt)
			}
		} else {
			switch resp.Type {
			case TRetryAfter:
				millis, err := ParseRetryAfter(resp.Payload)
				if err != nil {
					return Frame{}, err
				}
				lastErr = fmt.Errorf("fleet: backpressured (retry after %dms)", millis)
				wait = time.Duration(millis)*time.Millisecond + cl.jitter(backoffBase)
			case TErr:
				return Frame{}, fmt.Errorf("%w: %s", ErrServer, resp.Payload)
			default:
				return resp, nil
			}
		}
		if attempt < tries-1 {
			_ = cl.sleep(ctx, wait) // cut short by ctx: the loop exits at the top
		}
	}
	return Frame{}, fmt.Errorf("fleet: %s failed after %d attempts: %w", op, tries, lastErr)
}

// backoff returns the jittered exponential wait for an attempt.
func (cl *Client) backoff(attempt int) time.Duration {
	d := backoffBase << uint(attempt)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	return d/2 + cl.jitter(d)
}

// jitter draws a uniform duration in [0, d/2).
func (cl *Client) jitter(d time.Duration) time.Duration {
	if d < 2 {
		return 0
	}
	cl.rngMu.Lock()
	j := time.Duration(cl.rng.Int63n(int64(d / 2)))
	cl.rngMu.Unlock()
	return j
}

// sleep waits d or until ctx is cancelled, whichever comes first.
func (cl *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- request surface -----------------------------------------------------

// UploadRecords ships a sealed learning-record blob for a device. It
// returns only after the server acknowledged the fold (or the
// duplicate).
func (cl *Client) UploadRecords(imsi string, sealed []byte) error {
	_, err := cl.do(context.Background(), "upload",
		Frame{Type: TUpload, Payload: AppendSealedPayload(nil, imsi, sealed)})
	return err
}

// Report ships a sealed failure report for a device.
func (cl *Client) Report(imsi string, sealed []byte) error {
	_, err := cl.do(context.Background(), "report",
		Frame{Type: TReport, Payload: AppendSealedPayload(nil, imsi, sealed)})
	return err
}

// Query asks the server for a suggestion from the aggregate model
// (the model-push leg). It returns the raw sealed TSuggest payload (empty
// when the model abstains); the caller opens it with the device's
// envelope.
func (cl *Client) Query(imsi string, c cause.Cause) ([]byte, error) {
	resp, err := cl.do(context.Background(), "query",
		Frame{Type: TQuery, Payload: AppendQueryPayload(nil, imsi, c)})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// FetchModel pulls the canonical serialized aggregate model, as the
// server sent it.
func (cl *Client) FetchModel() ([]byte, error) {
	resp, err := cl.do(context.Background(), "model", Frame{Type: TModelPull})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// FetchStats pulls the server counters.
func (cl *Client) FetchStats() (ServerStats, error) {
	var st ServerStats
	resp, err := cl.do(context.Background(), "stats", Frame{Type: TStatsPull})
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(resp.Payload, &st); err != nil {
		return st, fmt.Errorf("fleet: stats payload: %w", err)
	}
	return st, nil
}

// Retries returns how many request attempts were retries.
func (cl *Client) Retries() uint64 { return cl.retries.Load() }

// Redials returns how many connections broke and were discarded, each
// failing the requests in flight on it.
func (cl *Client) Redials() uint64 { return cl.redials.Load() }

// Frames returns how many request frames were queued for sending, Writes
// how many connection writes carried them: Frames/Writes is the coalescing
// the callers' concurrency bought.
func (cl *Client) Frames() uint64 { return cl.frames.Load() }
func (cl *Client) Writes() uint64 { return cl.writes.Load() }
