package vnet_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
	"iotlan/internal/vnet"
)

// Interface conformance, checked at compile time.
var (
	_ net.Conn     = (*vnet.Conn)(nil)
	_ net.Listener = (*vnet.Listener)(nil)
)

type fix struct {
	sched *sim.Scheduler
	ln    *lan.Network
	pump  *vnet.Pump
	a, b  *vnet.Net // 192.168.10.10 and 192.168.10.11
	start time.Time
}

func newFix(seed int64) *fix {
	s := sim.NewScheduler(seed)
	n := lan.New(s)
	mk := func(last byte) *stack.Host {
		h := stack.NewHost(n, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
	p := vnet.NewPump(s)
	return &fix{sched: s, ln: n, pump: p, a: vnet.New(p, mk(10)), b: vnet.New(p, mk(11)), start: s.Now()}
}

// wait fails the test if an in-sim goroutine did not finish. Goroutines finish
// in real time after RunFor returns, hence the real-time grace.
func wait(t *testing.T, done <-chan struct{}, name string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("goroutine %s did not finish\n%s", name, goroutines())
	}
}

// goroutines is a dump of every goroutine's stack, for failures that would
// otherwise only say that something is stuck.
func goroutines() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

func TestPingPong(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if got := l.Addr().String(); got != "192.168.10.11:7000" {
		t.Fatalf("listener addr %q", got)
	}
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for i := 0; i < 3; i++ {
			n, err := c.Read(buf)
			if err != nil {
				t.Errorf("server read %d: %v", i, err)
				return
			}
			if _, err := c.Write(bytes.ToUpper(buf[:n])); err != nil {
				t.Errorf("server write %d: %v", i, err)
				return
			}
		}
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7000")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		if got := c.RemoteAddr().String(); got != "192.168.10.11:7000" {
			t.Errorf("remote addr %q", got)
		}
		if got := c.LocalAddr().(*net.TCPAddr); !got.IP.Equal(net.IPv4(192, 168, 10, 10)) || got.Port == 0 {
			t.Errorf("local addr %v", got)
		}
		buf := make([]byte, 64)
		for _, msg := range []string{"ping", "pong", "done"} {
			if _, err := c.Write([]byte(msg)); err != nil {
				t.Errorf("client write %q: %v", msg, err)
				return
			}
			n, err := c.Read(buf)
			if err != nil {
				t.Errorf("client read after %q: %v", msg, err)
				return
			}
			want := string(bytes.ToUpper([]byte(msg)))
			if string(buf[:n]) != want {
				t.Errorf("echo = %q, want %q", buf[:n], want)
			}
		}
	})
	f.pump.RunFor(30 * time.Second)
	wait(t, srv, "server")
	wait(t, cli, "client")
}

// BenchmarkConnRoundTrip is vnet's cost per operation: b.N round trips of
// a 4-byte echo over one connection between two hosts on one pump. Each
// round trip is a Write and a Read on either side, so four rendezvous with
// the pump, and the LAN frames between them.
func BenchmarkConnRoundTrip(b *testing.B) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7100")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	n := b.N
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			b.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				b.Errorf("server read %d: %v", i, err)
				return
			}
			if _, err := c.Write(buf); err != nil {
				b.Errorf("server write %d: %v", i, err)
				return
			}
		}
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7100")
		if err != nil {
			b.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		msg, buf := []byte("ping"), make([]byte, 4)
		for i := 0; i < n; i++ {
			if _, err := c.Write(msg); err != nil {
				b.Errorf("client write %d: %v", i, err)
				return
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				b.Errorf("client read %d: %v", i, err)
				return
			}
		}
		// The pump's wind-down after the last echo (the close handshakes,
		// the final settle) is not a round trip.
		b.StopTimer()
	})
	b.ResetTimer()
	f.pump.RunFor(time.Minute + time.Duration(n)*10*time.Millisecond)
	select {
	case <-srv:
	case <-time.After(5 * time.Second):
		b.Fatalf("server did not finish\n%s", goroutines())
	}
	select {
	case <-cli:
	case <-time.After(5 * time.Second):
		b.Fatalf("client did not finish\n%s", goroutines())
	}
	if resets := f.sched.Telemetry.Registry.Total("vnet_grant_resets"); resets != 0 {
		b.Fatalf("vnet_grant_resets = %d: the clock moved on the real-time valve", resets)
	}
}

// TestHalfClose exercises the full CloseWrite handshake: the client shuts its
// write side, the server drains to EOF, responds on the still-open direction,
// and the client reads the complete response then EOF.
func TestHalfClose(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7001")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	request := bytes.Repeat([]byte("req?"), 1000) // several segments
	response := bytes.Repeat([]byte("RSP!"), 2000)
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		var got bytes.Buffer
		buf := make([]byte, 512)
		for {
			n, err := c.Read(buf)
			got.Write(buf[:n])
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("server read ended with %v, want EOF", err)
					return
				}
				break
			}
		}
		if !bytes.Equal(got.Bytes(), request) {
			t.Errorf("server got %d bytes, want %d", got.Len(), len(request))
			return
		}
		if _, err := c.Write(response); err != nil {
			t.Errorf("server write after client FIN: %v", err)
		}
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7001")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Write(request); err != nil {
			t.Errorf("client write: %v", err)
			return
		}
		cw, ok := c.(interface{ CloseWrite() error })
		if !ok {
			t.Error("conn does not support CloseWrite")
			return
		}
		if err := cw.CloseWrite(); err != nil {
			t.Errorf("CloseWrite: %v", err)
			return
		}
		if _, err := c.Write([]byte("x")); err == nil {
			t.Error("write after CloseWrite succeeded")
		}
		var got bytes.Buffer
		buf := make([]byte, 512)
		for {
			n, err := c.Read(buf)
			got.Write(buf[:n])
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("client read ended with %v, want EOF", err)
					return
				}
				break
			}
		}
		if !bytes.Equal(got.Bytes(), response) {
			t.Errorf("client got %d bytes, want %d", got.Len(), len(response))
		}
	})
	f.pump.RunFor(30 * time.Second)
	wait(t, srv, "server")
	wait(t, cli, "client")
}

// TestRacyWritersAndReaders hammers one connection from several goroutines at
// once — concurrent writers on the client, concurrent drain-to-EOF readers on
// the response path — and checks only content invariants. Run under -race.
func TestRacyWritersAndReaders(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7002")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	const writers, msgsEach, msgLen = 3, 50, 32
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		counts := map[byte]int{}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			for _, ch := range buf[:n] {
				counts[ch]++
			}
			if err != nil {
				break
			}
		}
		for i := 0; i < writers; i++ {
			ch := byte('a' + i)
			if counts[ch] != msgsEach*msgLen {
				t.Errorf("byte %q count %d, want %d", ch, counts[ch], msgsEach*msgLen)
			}
		}
		if _, err := c.Write(bytes.Repeat([]byte("ok"), 500)); err != nil {
			t.Errorf("server respond: %v", err)
		}
		c.Close()
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7002")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			msg := bytes.Repeat([]byte{byte('a' + i)}, msgLen)
			go func() {
				defer wg.Done()
				for j := 0; j < msgsEach; j++ {
					if _, err := c.Write(msg); err != nil {
						t.Errorf("concurrent write: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := c.(*vnet.Conn).CloseWrite(); err != nil {
			t.Errorf("CloseWrite: %v", err)
			return
		}
		// Two goroutines race to drain the response; together they must see
		// every byte exactly once.
		var mu sync.Mutex
		total := 0
		var rg sync.WaitGroup
		for i := 0; i < 2; i++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					mu.Lock()
					total += n
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		rg.Wait()
		if total != 1000 {
			t.Errorf("racy readers drained %d bytes, want 1000", total)
		}
	})
	f.pump.RunFor(30 * time.Second)
	wait(t, srv, "server")
	wait(t, cli, "client")
}

// TestReadDeadline covers expiry on the virtual clock and extension after a
// timeout: the timed-out conn stays usable.
func TestReadDeadline(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7003")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		f.pump.Sleep(2 * time.Second) // past the client's first deadline
		if _, err := c.Write([]byte("late")); err != nil {
			t.Errorf("server write: %v", err)
		}
		// Hold the conn open until the client is done reading.
		buf := make([]byte, 16)
		c.Read(buf)
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7003")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		if err := c.SetReadDeadline(f.start.Add(500 * time.Millisecond)); err != nil {
			t.Errorf("set deadline: %v", err)
			return
		}
		buf := make([]byte, 16)
		_, err = c.Read(buf)
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("read past deadline = %v, want timeout", err)
			return
		}
		// A second read with the deadline still in the past fails without
		// blocking.
		if _, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("second expired read = %v", err)
			return
		}
		// Extend and the conn works again.
		if err := c.SetReadDeadline(f.start.Add(time.Minute)); err != nil {
			t.Errorf("extend deadline: %v", err)
			return
		}
		n, err := c.Read(buf)
		if err != nil || string(buf[:n]) != "late" {
			t.Errorf("read after extension = %q, %v", buf[:n], err)
		}
	})
	f.pump.RunFor(time.Minute)
	wait(t, srv, "server")
	wait(t, cli, "client")
}

// TestDeadlineExtendedWhileBlocked moves the deadline from another goroutine
// while a Read is parked on the old one; the read must survive to see data
// that arrives after the original deadline.
func TestDeadlineExtendedWhileBlocked(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7004")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		f.pump.Sleep(3 * time.Second) // after old deadline (1s), before new (10s)
		if _, err := c.Write([]byte("made it")); err != nil {
			t.Errorf("server write: %v", err)
		}
		buf := make([]byte, 16)
		c.Read(buf)
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7004")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		c.SetReadDeadline(f.start.Add(time.Second))
		ext := f.pump.Go(func() {
			f.pump.Sleep(500 * time.Millisecond)
			c.SetReadDeadline(f.start.Add(10 * time.Second))
		})
		buf := make([]byte, 16)
		n, err := c.Read(buf)
		if err != nil || string(buf[:n]) != "made it" {
			t.Errorf("read = %q, %v; want \"made it\"", buf[:n], err)
		}
		<-ext
	})
	f.pump.RunFor(time.Minute)
	wait(t, srv, "server")
	wait(t, cli, "client")
}

// TestCloseUnblocksRead closes a conn out from under a parked reader.
func TestCloseUnblocksRead(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7005")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := f.pump.Go(func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 16)
		c.Read(buf) // parks until the client tears down
		c.Close()
	})
	cli := f.pump.Go(func() {
		c, err := f.a.Dial("tcp", "192.168.10.11:7005")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		reader := f.pump.Go(func() {
			buf := make([]byte, 16)
			_, err := c.Read(buf)
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("read unblocked with %v, want net.ErrClosed", err)
			}
		})
		f.pump.Sleep(time.Second)
		c.Close()
		<-reader
	})
	f.pump.RunFor(30 * time.Second)
	wait(t, srv, "server")
	wait(t, cli, "client")
}

// TestCloseUnblocksAccept closes a listener out from under a parked Accept.
func TestCloseUnblocksAccept(t *testing.T) {
	f := newFix(1)
	l, err := f.b.Listen("tcp", ":7006")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	acc := f.pump.Go(func() {
		_, err := l.Accept()
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("accept unblocked with %v, want net.ErrClosed", err)
		}
	})
	closer := f.pump.Go(func() {
		f.pump.Sleep(time.Second)
		l.Close()
	})
	f.pump.RunFor(10 * time.Second)
	wait(t, acc, "accepter")
	wait(t, closer, "closer")
}

func TestDialRefused(t *testing.T) {
	f := newFix(1)
	cli := f.pump.Go(func() {
		_, err := f.a.Dial("tcp", "192.168.10.11:7777")
		if !errors.Is(err, syscall.ECONNREFUSED) {
			t.Errorf("dial to closed port = %v, want ECONNREFUSED", err)
		}
	})
	f.pump.RunFor(10 * time.Second)
	wait(t, cli, "client")
}

func TestDialTimeoutAbsentHost(t *testing.T) {
	f := newFix(1)
	cli := f.pump.Go(func() {
		_, err := f.a.Dial("tcp", "192.168.10.99:80")
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Errorf("dial to absent host = %v, want timeout", err)
		}
	})
	// The handshake is bounded at 30 s of virtual time: the dial still
	// waits just before, and has timed out just after.
	f.pump.RunFor(29 * time.Second)
	select {
	case <-cli:
		t.Fatal("dial gave up before 30 s of virtual time")
	default:
	}
	f.pump.RunFor(2 * time.Second)
	wait(t, cli, "client")
}

func TestDialContextCancel(t *testing.T) {
	f := newFix(1)
	ctx, cancel := context.WithCancel(context.Background())
	cli := f.pump.Go(func() {
		_, err := f.a.DialContext(ctx, "tcp", "192.168.10.99:80")
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled dial = %v, want context.Canceled", err)
		}
	})
	cancelAfter := f.pump.Go(func() {
		f.pump.Sleep(time.Second)
		cancel()
	})
	f.pump.RunFor(30 * time.Second)
	wait(t, cli, "client")
	wait(t, cancelAfter, "canceller")
}

// TestAcceptReadTruncation is the accept-path truncation property test: the
// received stream must reassemble byte-identically no matter how small the
// server's read buffer is, across awkward buffer sizes straddling the MSS.
func TestAcceptReadTruncation(t *testing.T) {
	payload := make([]byte, 8192)
	rng := rand.New(rand.NewSource(42))
	rng.Read(payload)
	chunks := []int{1, 3, 10, 100, 1459, 1460, 1461, 4096}
	for _, k := range []int{1, 2, 7, 64, 1459, 1460, 1461, 8192} {
		f := newFix(1)
		l, err := f.b.Listen("tcp", ":7010")
		if err != nil {
			t.Fatalf("k=%d listen: %v", k, err)
		}
		var got []byte
		srv := f.pump.Go(func() {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("k=%d accept: %v", k, err)
				return
			}
			defer c.Close()
			buf := make([]byte, k)
			for {
				n, err := c.Read(buf)
				if n > k {
					t.Errorf("k=%d read returned %d > buffer", k, n)
				}
				got = append(got, buf[:n]...)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						t.Errorf("k=%d read ended with %v", k, err)
					}
					return
				}
			}
		})
		cli := f.pump.Go(func() {
			c, err := f.a.Dial("tcp", "192.168.10.11:7010")
			if err != nil {
				t.Errorf("k=%d dial: %v", k, err)
				return
			}
			for off, i := 0, 0; off < len(payload); i++ {
				end := off + chunks[i%len(chunks)]
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := c.Write(payload[off:end]); err != nil {
					t.Errorf("k=%d write: %v", k, err)
					return
				}
				off = end
			}
			c.Close()
		})
		f.pump.RunFor(time.Minute)
		wait(t, srv, "server")
		wait(t, cli, "client")
		if !bytes.Equal(got, payload) {
			t.Fatalf("k=%d reassembled %d bytes, payload %d; mismatch", k, len(got), len(payload))
		}
	}
}

// TestListenErrors covers address validation and port collisions.
func TestListenErrors(t *testing.T) {
	f := newFix(1)
	if _, err := f.a.Listen("tcp", ":6000"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	if _, err := f.a.Listen("tcp", ":6000"); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("duplicate listen = %v, want EADDRINUSE", err)
	}
	if _, err := f.a.Listen("tcp", "example.com:80"); err == nil {
		t.Fatal("hostname listen succeeded")
	}
	if _, err := f.a.Listen("unix", "/tmp/x"); err == nil {
		t.Fatal("unix listen succeeded")
	}
	l0, err := f.a.Listen("tcp", ":0")
	if err != nil {
		t.Fatalf("listen :0: %v", err)
	}
	if p := l0.Addr().(*net.TCPAddr).Port; p < 20000 {
		t.Fatalf("ephemeral port %d", p)
	}
}
