package main

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// lossyProxy is a TCP forwarder that degrades the path to one fleet node:
// every forwarded chunk waits delay+jitter, and each chunk rolls killProb
// to snap the connection (the client fails every request in flight on it
// into its retry loop and redials). Corruption, when enabled, is applied
// ONLY server→client — flipping bits toward the server would turn
// envelope integrity failures into TErr responses, which clients rightly
// treat as fatal; mangled acks and responses are the interesting loss
// mode (the request was folded, the client can't know, and must retry
// into the dedup path).
type lossyProxy struct {
	ln       net.Listener
	target   string
	delay    time.Duration
	jitter   time.Duration
	killProb float64
	corrupt  float64

	mu  sync.Mutex
	rng *rand.Rand
	wg  sync.WaitGroup
}

func startLossyProxy(listenAddr, target string, delay, jitter time.Duration, killProb, corrupt float64, seed int64) (*lossyProxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &lossyProxy{
		ln: ln, target: target,
		delay: delay, jitter: jitter,
		killProb: killProb, corrupt: corrupt,
		rng: rand.New(rand.NewSource(seed)),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *lossyProxy) Addr() string { return p.ln.Addr().String() }

func (p *lossyProxy) Close() {
	_ = p.ln.Close()
	p.wg.Wait()
}

func (p *lossyProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serve(c)
	}
}

func (p *lossyProxy) serve(client net.Conn) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		_ = client.Close()
		return
	}
	done := make(chan struct{}, 2)
	go func() { p.pump(server, client, false); done <- struct{}{} }()
	go func() { p.pump(client, server, true); done <- struct{}{} }()
	<-done
	// One direction died (EOF, kill roll, or peer close): snap both so the
	// client sees a clean broken connection, not a half-open hang.
	_ = client.Close()
	_ = server.Close()
	<-done
}

// pump forwards src→dst chunk by chunk with delay, jitter, random kills,
// and (server→client only) corruption.
func (p *lossyProxy) pump(dst, src net.Conn, toServer bool) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			d, kill, flip := p.roll(n)
			if kill {
				return
			}
			if d > 0 {
				time.Sleep(d)
			}
			if !toServer && flip >= 0 {
				buf[flip] ^= 0x01
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				_ = err
			}
			return
		}
	}
}

// roll draws this chunk's fate: its added latency, whether the connection
// dies now, and which byte (if any) to corrupt (-1: none).
func (p *lossyProxy) roll(n int) (d time.Duration, kill bool, flip int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d = p.delay
	if p.jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(p.jitter)))
	}
	kill = p.killProb > 0 && p.rng.Float64() < p.killProb
	flip = -1
	if p.corrupt > 0 && p.rng.Float64() < p.corrupt {
		flip = p.rng.Intn(n)
	}
	return d, kill, flip
}
