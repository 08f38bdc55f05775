package stack

import (
	"net/netip"
	"testing"
	"time"
)

// TestARPWaitBounded proves the per-destination pending-frame queue sheds
// load past arpWaitMax instead of growing for the whole 3 s give-up window.
func TestARPWaitBounded(t *testing.T) {
	f := newFixture()
	a := f.host(10)
	ghost := netip.AddrFrom4([4]byte{192, 168, 10, 200}) // nobody home

	const extra = 50
	for i := 0; i < arpWaitMax+extra; i++ {
		a.SendUDP(40000, ghost, 9999, []byte("x"))
	}
	if got := len(a.arpWait[ghost]); got != arpWaitMax {
		t.Fatalf("arpWait holds %d frames, want cap %d", got, arpWaitMax)
	}
	if got := a.cARPWaitDrop.Value(); got != extra {
		t.Fatalf("stack_arp_wait_dropped = %d, want %d", got, extra)
	}
	// The give-up timer still clears the queue for absent targets.
	f.sched.RunFor(5 * time.Second)
	if got := len(a.arpWait); got != 0 {
		t.Fatalf("arpWait retains %d destinations after give-up window", got)
	}
}

// TestARPWaitFlushUnderBound: a burst under the cap to a present host is
// fully delivered once resolution completes — the bound only sheds, never
// reorders or truncates resolvable traffic.
func TestARPWaitFlushUnderBound(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	got := 0
	b.OpenUDP(9999, func(dg Datagram) { got++ })
	const n = arpWaitMax - 1
	for i := 0; i < n; i++ {
		a.SendUDP(40000, b.IPv4(), 9999, []byte("y"))
	}
	f.sched.RunFor(time.Second)
	if got != n {
		t.Fatalf("delivered %d datagrams, want %d", got, n)
	}
	if a.cARPWaitDrop.Value() != 0 {
		t.Fatalf("dropped %d frames from an under-bound burst", a.cARPWaitDrop.Value())
	}
}

// A datagram parked on ARP carries the bytes it was sent with: SendUDP
// writes the payload into its frame before it returns, so the caller may
// overwrite its buffer while the frame waits for the neighbour's answer.
func TestParkedDatagramKeepsPayload(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	var got []string
	b.OpenUDP(9999, func(dg Datagram) { got = append(got, string(dg.Payload)) })
	buf := []byte("hello")
	a.SendUDP(40000, b.IPv4(), 9999, buf)
	if n := len(a.arpWait[b.IPv4()]); n != 1 {
		t.Fatalf("%d frames wait for ARP, want 1", n)
	}
	copy(buf, "XXXXX")
	f.sched.RunFor(time.Second)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered %q, want [\"hello\"]", got)
	}
}

// TestTCPHalfClose exercises the opt-in half-close path: after the client's
// CloseWrite the server sees OnFin (not OnClose), keeps streaming data the
// client still receives, and only the server's own Close finishes teardown.
func TestTCPHalfClose(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)

	var server *TCPConn
	finSeen, closeSeen := false, false
	var serverGot []byte
	b.ListenTCP(80, func(c *TCPConn) {
		server = c
		c.HalfClose = true
		c.OnData = func(_ *TCPConn, data []byte) { serverGot = append(serverGot, data...) }
		c.OnFin = func(*TCPConn) { finSeen = true }
		c.OnClose = func(*TCPConn) { closeSeen = true }
	})

	var clientGot []byte
	clientClosed := false
	client := a.DialTCP(b.IPv4(), 80)
	client.HalfClose = true
	client.OnData = func(_ *TCPConn, data []byte) { clientGot = append(clientGot, data...) }
	client.OnClose = func(*TCPConn) { clientClosed = true }
	client.OnConnect = func(c *TCPConn) {
		c.Send([]byte("request"))
		c.CloseWrite()
	}
	f.sched.RunFor(time.Second)

	if string(serverGot) != "request" {
		t.Fatalf("server got %q", serverGot)
	}
	if !finSeen || closeSeen {
		t.Fatalf("after CloseWrite: finSeen=%v closeSeen=%v, want FIN only", finSeen, closeSeen)
	}
	if server == nil || server.state != stateCloseWait {
		t.Fatalf("server not in CLOSE-WAIT after peer FIN")
	}

	// The half-closed peer still receives the response stream.
	server.Send([]byte("response"))
	server.Close()
	f.sched.RunFor(time.Second)

	if string(clientGot) != "response" {
		t.Fatalf("client got %q after its own CloseWrite", clientGot)
	}
	if !clientClosed {
		t.Fatal("client never saw the server's FIN complete the close")
	}
	if client.ClosedByRST || server.ClosedByRST {
		t.Fatal("orderly close flagged as RST")
	}
	if len(a.tcpConns) != 0 || len(b.tcpConns) != 0 {
		t.Fatalf("conns leaked: client=%d server=%d", len(a.tcpConns), len(b.tcpConns))
	}
}

// TestTCPResetFlagsClosedByRST: an aborted connection is distinguishable
// from an orderly one.
func TestTCPResetFlagsClosedByRST(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)

	var server *TCPConn
	closeSeen := false
	b.ListenTCP(80, func(c *TCPConn) {
		server = c
		c.OnClose = func(*TCPConn) { closeSeen = true }
	})
	client := a.DialTCP(b.IPv4(), 80)
	client.OnConnect = func(c *TCPConn) { c.Reset() }
	f.sched.RunFor(time.Second)

	if server == nil {
		t.Fatal("handshake never completed")
	}
	if !closeSeen || !server.ClosedByRST {
		t.Fatalf("closeSeen=%v ClosedByRST=%v, want RST-flagged close", closeSeen, server.ClosedByRST)
	}
}
