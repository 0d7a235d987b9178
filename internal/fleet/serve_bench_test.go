package fleet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
)

// serveLoop drives an in-process server over loopback with pre-sealed
// rounds, so that a round costs the client one Write and one read into a
// fixed buffer: what is measured is the serving path.
type serveLoop struct {
	srv    *Server
	conn   net.Conn
	rounds [][]byte // wire bytes of each round's requests
	next   int
	reply  []byte // one round's replies, read whole
}

// serveDevices is how many devices the rounds cycle through.
const serveDevices = 16

// newServeLoop starts a two-shard in-memory server, has every device
// upload once, and seals n rounds: with upload and query both set, one
// upload plus one query per round; otherwise one of them. The rounds cycle
// through the devices the server has seen, except that with fresh each
// round's upload is a new device's first contact.
func newServeLoop(tb testing.TB, n int, upload, query, fresh bool) *serveLoop {
	tb.Helper()
	srv := quietServer(tb, ServerConfig{Shards: 2})
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Shutdown() })
	devs := make([]*SimDevice, serveDevices)
	seal := func(dev *SimDevice, i int) Frame {
		sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err != nil {
			tb.Fatal(err)
		}
		return Frame{Type: TUpload, Payload: AppendSealedPayload(nil, dev.IMSI, sealed)}
	}
	var seen []Frame
	for d := range devs {
		devs[d] = NewSimDevice(DefaultMasterKey, fmt.Sprintf("00125%010d", d))
		seen = append(seen, seal(devs[d], d))
	}
	l := &serveLoop{srv: srv, conn: dialRaw(tb, srv)}
	if _, err := l.conn.Write(encodeFrames(seen...)); err != nil {
		tb.Fatal(err)
	}
	br := bufio.NewReader(l.conn)
	for range seen {
		if f, err := ReadFrame(br, DefaultMaxFrame); err != nil || f.Type != TAck {
			tb.Fatalf("first upload: %v %v", f.Type, err)
		}
	}
	for i := range n {
		d := i % serveDevices
		var frames []Frame
		if upload {
			dev := devs[d]
			if fresh {
				dev = NewSimDevice(DefaultMasterKey, fmt.Sprintf("00127%010d", i))
			}
			frames = append(frames, seal(dev, i))
		}
		if query {
			c := cause.MM(cause.Code(150 + i%3))
			frames = append(frames, Frame{Type: TQuery, Payload: AppendQueryPayload(nil, devs[d].IMSI, c)})
		}
		l.rounds = append(l.rounds, encodeFrames(frames...))
	}
	// Every reply of a kind has one length: an ack is a bare header, and
	// every suggestion seals the same plaintext length.
	if upload {
		l.reply = append(l.reply, make([]byte, headerLen)...)
	}
	if query {
		sealed, err := devs[0].SealRecords(SuggestPayload(cause.MM(150), core.LearningOrder[0]))
		if err != nil {
			tb.Fatal(err)
		}
		l.reply = append(l.reply, make([]byte, headerLen+len(sealed))...)
	}
	return l
}

// round sends the next round and reads its replies.
func (l *serveLoop) round() error {
	if _, err := l.conn.Write(l.rounds[l.next]); err != nil {
		return err
	}
	l.next++
	_, err := io.ReadFull(l.conn, l.reply)
	return err
}

// BenchmarkServeRoundTrip is one upload plus one query per iteration, on
// devices the server has already seen, over loopback to an in-process
// server.
func BenchmarkServeRoundTrip(b *testing.B) {
	l := newServeLoop(b, b.N, true, true, false)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := l.round(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRoundTrip is one upload plus one query per iteration
// through the program's own client: 8 callers share 2 connections to an
// in-process two-shard server over loopback, each caller on devices of
// its own that the server has already seen, with every upload sealed and
// every frame encoded before the timer starts. It reports the frames each
// client write carried.
func BenchmarkClientRoundTrip(b *testing.B) {
	const callers, conns, devsPerCaller = 8, 2, 2
	srv := quietServer(b, ServerConfig{Shards: 2})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Shutdown() })
	cl := NewClient(ClientConfig{Addr: srv.Addr().String(), Conns: conns})
	b.Cleanup(cl.Close)

	upload := func(dev *SimDevice, i int) Frame {
		sealed, err := dev.SealRecords(core.MarshalRecords(deviceRecords(i)))
		if err != nil {
			b.Fatal(err)
		}
		return Frame{Type: TUpload, Payload: AppendSealedPayload(nil, dev.IMSI, sealed)}
	}
	devs := make([]*SimDevice, callers*devsPerCaller)
	for d := range devs {
		devs[d] = NewSimDevice(DefaultMasterKey, fmt.Sprintf("00126%010d", d))
		if _, err := cl.do(context.Background(), "upload", upload(devs[d], d)); err != nil {
			b.Fatal(err)
		}
	}
	// Caller w sends rounds[w] in order, so each device's uploads reach
	// the server in the order they were sealed.
	rounds := make([][]Frame, callers)
	for i := range b.N {
		w := i % callers
		dev := devs[w*devsPerCaller+(i/callers)%devsPerCaller]
		c := cause.MM(cause.Code(150 + i%3))
		rounds[w] = append(rounds[w], upload(dev, i), Frame{Type: TQuery, Payload: AppendQueryPayload(nil, dev.IMSI, c)})
	}

	frames0, writes0 := cl.Frames(), cl.Writes()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range rounds {
		wg.Add(1)
		go func(frames []Frame) {
			defer wg.Done()
			for _, f := range frames {
				if _, err := cl.do(context.Background(), "round", f); err != nil {
					b.Error(err)
					return
				}
			}
		}(rounds[w])
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(cl.Frames()-frames0)/float64(cl.Writes()-writes0), "frames/write")
}

// TestServeHotPathAllocs pins the objects the process allocates per
// served request, server and loopback round trip together. A request of a
// device the server has seen allocates nothing: the frame is read into
// the connection's buffer, the IMSI is looked up as bytes, an upload opens
// into its shard's scratch buffer and its rows fold straight into the
// model, and a query sums its evidence on the stack and seals into the
// connection's arena. A goroutine hand-off, a channel or a decoded table
// per request would show up here. A device's first contact allocates the
// IMSI's string and the envelope the server keeps, the envelope's two AES
// key schedules, and the schedule of the device key K with the block it
// derives the envelope keys from: 6 objects, measured 6.05 with the
// shards' map growing now and then. Expanding the master key again for
// each device, as a one-shot SubscriberKey does, costs two more.
// AllocsPerRun rounds its mean down, so each of its runs serves batch
// requests: the pins hold to 1/batch of an object per request.
func TestServeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs, batch = 10, 20
	for _, tc := range []struct {
		name                 string
		upload, query, fresh bool
		want                 float64
	}{
		{"upload", true, false, false, 0},
		{"query", false, true, false, 0},
		{"first-contact upload", true, false, true, 6.05},
	} {
		l := newServeLoop(t, (runs+1)*batch, tc.upload, tc.query, tc.fresh)
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			for range batch {
				if e := l.round(); e != nil {
					err = e
				}
			}
		}) / batch
		if err != nil {
			t.Fatal(err)
		}
		if allocs > tc.want {
			t.Errorf("a served %s allocates %v objects, want at most %v", tc.name, allocs, tc.want)
		}
		t.Logf("%s: %v objects per served request", tc.name, allocs)
	}
}
