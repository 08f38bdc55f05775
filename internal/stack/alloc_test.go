// Alloc-count regression guards and benchmarks for the host's receive and
// send paths. Race instrumentation perturbs allocation counts, so the file
// is excluded from -race runs.
//
//go:build !race

package stack

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
)

// multicastHost joins the SSDP group with unreachables off, so a datagram
// to an unbound port on that group is decoded, dispatched and dropped.
func multicastHost(tb testing.TB) (*Host, []byte) {
	tb.Helper()
	h := newFixture().host(10)
	h.Policy.RespondUDPUnreachable = false
	h.JoinGroup(netx.SSDPGroup)
	src := netip.MustParseAddr("192.168.10.99")
	udp := &layers.UDP{SrcPort: 1900, DstPort: 1900}
	udp.SetAddrs(src, netx.SSDPGroup)
	frame := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 99}, Dst: netx.MulticastMAC(netx.SSDPGroup), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: netx.SSDPGroup},
		udp,
		layers.RawPayload([]byte("NOTIFY * HTTP/1.1\r\n\r\n")))
	return h, frame
}

// The receive path from decode to drop is allocation-free; the decode the
// network makes once per delivery event runs inside the measured closure.
func TestHandleFrameMulticastAllocs(t *testing.T) {
	h, frame := multicastHost(t)
	var p layers.Packet
	recv := func() {
		p.DecodeInto(frame)
		h.HandleFrame(&p)
	}
	recv()
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("decode + HandleFrame(joined-group UDP, unbound port) = %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkHandleFrameMulticast(b *testing.B) {
	h, frame := multicastHost(b)
	var p layers.Packet
	p.DecodeInto(frame)
	h.HandleFrame(&p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DecodeInto(frame)
		h.HandleFrame(&p)
	}
}

// multicastSender is a host whose mDNS-group datagrams one other station,
// a group member with no socket on the port, hears and drops. The network
// has no capture tap, so a send allocates only what the send path does.
func multicastSender(tb testing.TB) (*Host, *sim.Scheduler) {
	tb.Helper()
	s := sim.NewScheduler(1)
	n := lan.New(s)
	mk := func(last byte) *Host {
		h := NewHost(n, netx.MAC{2, 0, 0, 0, 0, last}, DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
	a := mk(10)
	mk(11).JoinGroup(netx.MDNSv4Group)
	s.RunFor(time.Second) // the join's IGMP report
	return a, s
}

// A multicast send builds its frame in one buffer and schedules a pooled
// delivery: the frame is the send's one allocation, delivery included.
func TestSendUDPAllocs(t *testing.T) {
	h, s := multicastSender(t)
	payload := make([]byte, 200)
	send := func() {
		h.SendUDP(5353, netx.MDNSv4Group, 5353, payload)
		s.RunFor(time.Millisecond)
	}
	send()
	if avg := testing.AllocsPerRun(200, send); avg != 1 {
		t.Fatalf("multicast SendUDP + delivery = %.2f allocs/op, want 1 (the frame)", avg)
	}
}

func BenchmarkSendUDP(b *testing.B) {
	h, s := multicastSender(b)
	payload := make([]byte, 200)
	h.SendUDP(5353, netx.MDNSv4Group, 5353, payload)
	s.RunFor(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SendUDP(5353, netx.MDNSv4Group, 5353, payload)
		s.RunFor(time.Millisecond)
	}
}
