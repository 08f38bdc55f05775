package stack

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
	"iotlan/internal/sim"
)

type fixture struct {
	sched *sim.Scheduler
	net   *lan.Network
	cap   *pcap.Capture
}

func newFixture() *fixture {
	s := sim.NewScheduler(1)
	n := lan.New(s)
	c := pcap.NewCapture()
	n.Tap(c.Add)
	return &fixture{sched: s, net: n, cap: c}
}

func (f *fixture) host(last byte) *Host {
	h := NewHost(f.net, netx.MAC{2, 0, 0, 0, 0, last}, DefaultPolicy)
	h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
	return h
}

func TestARPResolutionAndUDPDelivery(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	var got []Datagram
	b.OpenUDP(9999, func(dg Datagram) { got = append(got, dg) })
	a.SendUDP(40000, b.IPv4(), 9999, []byte("hello"))
	f.sched.RunFor(time.Second)
	if len(got) != 1 || string(got[0].Payload) != "hello" {
		t.Fatalf("datagrams: %+v", got)
	}
	if got[0].Src != a.IPv4() || got[0].SrcPort != 40000 {
		t.Fatalf("src wrong: %+v", got[0])
	}
	// The capture must contain the ARP exchange before the UDP datagram.
	var sawReq, sawRep, sawUDP bool
	for _, rec := range f.cap.All {
		p := rec.Decode()
		switch {
		case p.HasARP && p.ARP.Op == layers.ARPRequest:
			sawReq = true
		case p.HasARP && p.ARP.Op == layers.ARPReply:
			sawRep = true
		case p.HasUDP:
			sawUDP = true
		}
	}
	if !sawReq || !sawRep || !sawUDP {
		t.Fatalf("capture missing ARP/UDP: req=%v rep=%v udp=%v", sawReq, sawRep, sawUDP)
	}
}

func TestARPCacheSkipsSecondResolution(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	b.OpenUDP(9999, nil)
	a.SendUDP(40000, b.IPv4(), 9999, []byte("one"))
	f.sched.RunFor(time.Second)
	before := f.cap.Len()
	a.SendUDP(40000, b.IPv4(), 9999, []byte("two"))
	f.sched.RunFor(time.Second)
	for _, r := range f.cap.All[before:] {
		if r.Decode().HasARP {
			t.Fatal("second send re-ARPed despite cache")
		}
	}
}

func TestMulticastDelivery(t *testing.T) {
	f := newFixture()
	a, b, c := f.host(10), f.host(11), f.host(12)
	var bGot, cGot int
	b.JoinGroup(netx.MDNSv4Group)
	b.OpenUDP(5353, func(Datagram) { bGot++ })
	c.OpenUDP(5353, func(Datagram) { cGot++ }) // not joined
	a.SendUDP(5353, netx.MDNSv4Group, 5353, []byte("query"))
	f.sched.RunFor(time.Second)
	if bGot != 1 {
		t.Fatalf("joined host got %d datagrams", bGot)
	}
	if cGot != 0 {
		t.Fatal("non-member received group traffic")
	}
	// The join must have emitted an IGMPv3 report.
	found := false
	for _, rec := range f.cap.All {
		p := rec.Decode()
		if p.HasIGMP && p.IGMP.Type == layers.IGMPv3Report && p.IGMP.Group == netx.MDNSv4Group {
			found = true
		}
	}
	if !found {
		t.Fatal("no IGMP report in capture")
	}
}

func TestBroadcastUDP(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	n := 0
	b.OpenUDP(6666, func(Datagram) { n++ })
	a.SendUDP(6666, netx.Broadcast4, 6666, []byte("tuya discovery"))
	a.SendUDP(6666, netx.SubnetBroadcast(a.IPv4()), 6666, []byte("tuya discovery"))
	f.sched.RunFor(time.Second)
	if n != 2 {
		t.Fatalf("broadcast datagrams received: %d, want 2", n)
	}
}

func TestUDPClosedPortUnreachable(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	_ = b
	a.SendUDP(40000, b.IPv4(), 1234, []byte("probe"))
	f.sched.RunFor(time.Second)
	found := false
	for _, rec := range f.cap.All {
		p := rec.Decode()
		if p.HasICMP4 && p.ICMP4.Type == layers.ICMPv4Unreachable && p.ICMP4.Code == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("no port-unreachable for closed UDP port")
	}
}

func TestTCPHandshakeDataClose(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	var serverGot, clientGot []byte
	var accepted, closedServer, closedClient bool
	b.ListenTCP(80, func(c *TCPConn) {
		accepted = true
		c.OnData = func(c *TCPConn, data []byte) {
			serverGot = append(serverGot, data...)
			c.Send([]byte("HTTP/1.1 200 OK\r\n\r\n"))
		}
		c.OnClose = func(*TCPConn) { closedServer = true }
	})
	conn := a.DialTCP(b.IPv4(), 80)
	conn.OnConnect = func(c *TCPConn) { c.Send([]byte("GET / HTTP/1.1\r\n\r\n")) }
	conn.OnData = func(c *TCPConn, data []byte) {
		clientGot = append(clientGot, data...)
		c.Close()
	}
	conn.OnClose = func(*TCPConn) { closedClient = true }
	f.sched.RunFor(5 * time.Second)
	if !accepted {
		t.Fatal("no accept")
	}
	if string(serverGot) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("server got %q", serverGot)
	}
	if string(clientGot) != "HTTP/1.1 200 OK\r\n\r\n" {
		t.Fatalf("client got %q", clientGot)
	}
	if !closedServer || !closedClient {
		t.Fatalf("close callbacks: server=%v client=%v", closedServer, closedClient)
	}
	if len(a.tcpConns) != 0 || len(b.tcpConns) != 0 {
		t.Fatalf("connection leak: a=%d b=%d", len(a.tcpConns), len(b.tcpConns))
	}
}

func TestTCPRefusedPort(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	refused := false
	conn := a.DialTCP(b.IPv4(), 23)
	conn.OnRefused = func(*TCPConn) { refused = true }
	conn.OnConnect = func(*TCPConn) { t.Error("connected to closed port") }
	f.sched.RunFor(time.Second)
	if !refused {
		t.Fatal("no RST for closed port")
	}
}

func TestTCPSilentWhenPolicyDropsRst(t *testing.T) {
	f := newFixture()
	a := f.host(10)
	pol := DefaultPolicy
	pol.RespondTCPRst = false
	b := NewHost(f.net, netx.MAC{2, 0, 0, 0, 0, 99}, pol)
	b.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, 99}))
	refused := false
	conn := a.DialTCP(b.IPv4(), 23)
	conn.OnRefused = func(*TCPConn) { refused = true }
	f.sched.RunFor(time.Second)
	if refused {
		t.Fatal("got RST from drop-policy host")
	}
}

func TestICMPEcho(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	a.Ping(b.IPv4(), 1, 1)
	f.sched.RunFor(time.Second)
	var sawReply bool
	for _, rec := range f.cap.All {
		p := rec.Decode()
		if p.HasICMP4 && p.ICMP4.Type == layers.ICMPv4EchoReply {
			if p.SrcIP() != b.IPv4() || p.DstIP() != a.IPv4() {
				t.Errorf("echo reply %v -> %v, want %v -> %v", p.SrcIP(), p.DstIP(), b.IPv4(), a.IPv4())
			}
			sawReply = true
		}
	}
	if !sawReply {
		t.Fatal("no echo reply in capture")
	}
}

func TestIPv6NeighborDiscovery(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	got := 0
	b.OpenUDP(5353, func(Datagram) { got++ })
	b.JoinGroup(netx.MDNSv6Group)
	// Sending to b's link-local v6 address forces an NDP exchange.
	a.SendUDP(5353, b.IPv6(), 5353, []byte("v6 hello"))
	f.sched.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("v6 unicast datagrams: %d", got)
	}
	var ns, na bool
	for _, rec := range f.cap.All {
		p := rec.Decode()
		if p.HasICMP6 && p.ICMP6.Type == layers.ICMPv6NeighborSolicit {
			ns = true
		}
		if p.HasICMP6 && p.ICMP6.Type == layers.ICMPv6NeighborAdvert {
			na = true
		}
	}
	if !ns || !na {
		t.Fatalf("NDP exchange missing: NS=%v NA=%v", ns, na)
	}
}

func TestSilentARPBroadcastPolicy(t *testing.T) {
	f := newFixture()
	a := f.host(10)
	pol := DefaultPolicy
	pol.RespondARPBroadcast = false
	b := NewHost(f.net, netx.MAC{2, 0, 0, 0, 0, 50}, pol)
	b.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, 50}))

	countReplies := func() int {
		n := 0
		for _, rec := range f.cap.All {
			p := rec.Decode()
			if p.HasARP && p.ARP.Op == layers.ARPReply {
				n++
			}
		}
		return n
	}

	// A sweep: broadcast probes across the subnet. The silent host must not
	// answer the probe for its own address mid-sweep (§5.1: 58% finding).
	for last := byte(45); last <= 55; last++ {
		a.ARPProbe(netip.AddrFrom4([4]byte{192, 168, 10, last}))
	}
	f.sched.RunFor(time.Second)
	if countReplies() != 0 {
		t.Fatal("silent host answered a broadcast ARP sweep")
	}

	// An isolated resolution probe minutes later is answered normally.
	f.sched.RunFor(time.Minute)
	a.ARPProbe(b.IPv4())
	f.sched.RunFor(time.Second)
	if countReplies() != 1 {
		t.Fatal("silent host should answer a one-off broadcast resolution")
	}

	// Unicast ARP is always answered, even mid-sweep (§5.1: 100% finding).
	for last := byte(45); last <= 55; last++ {
		a.ARPProbe(netip.AddrFrom4([4]byte{192, 168, 10, last}))
	}
	a.ARPProbeUnicast(b.MAC(), b.IPv4())
	f.sched.RunFor(time.Second)
	if countReplies() != 2 {
		t.Fatal("unicast ARP unanswered")
	}
}

func TestIPProtoUnreachable(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	a.SendIPv4Proto(b.IPv4(), 47, []byte{0, 0}) // GRE, unsupported
	f.sched.RunFor(time.Second)
	found := false
	for _, rec := range f.cap.All {
		p := rec.Decode()
		if p.HasICMP4 && p.ICMP4.Type == layers.ICMPv4Unreachable && p.ICMP4.Code == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no protocol-unreachable")
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	f := newFixture()
	a := f.host(10)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		s := a.OpenUDPEphemeral(nil)
		if seen[s.Port] {
			t.Fatalf("duplicate ephemeral port %d", s.Port)
		}
		seen[s.Port] = true
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	n := 0
	b.OpenUDP(9999, func(Datagram) { n++ })
	a.SendUDP(1, b.IPv4(), 9999, []byte("x"))
	f.sched.RunFor(time.Second)
	f.net.Detach(b.MAC())
	a.SendUDP(1, b.IPv4(), 9999, []byte("y"))
	f.sched.RunFor(time.Second)
	if n != 1 {
		t.Fatalf("delivery count = %d, want 1", n)
	}
}
