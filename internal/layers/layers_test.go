package layers

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"

	"iotlan/internal/netx"
)

var (
	macA = netx.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0a}
	macB = netx.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0b}
	ipA  = netip.MustParseAddr("192.168.10.10")
	ipB  = netip.MustParseAddr("192.168.10.11")
)

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4}
	frame := Serialize(e, RawPayload("hello"))
	var got Ethernet
	if err := got.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if got.Src != macA || got.Dst != macB || got.EtherType != EtherTypeIPv4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !bytes.Equal(frame[14:], []byte("hello")) {
		t.Fatal("payload lost")
	}
}

func TestEthernet8023LLC(t *testing.T) {
	e := &Ethernet{Src: macA, Dst: netx.Broadcast, EtherType: 0} // 802.3
	llc := &LLC{DSAP: 0, SSAP: 0, Control: 0xaf}
	frame := Serialize(e, llc)
	p := Decode(frame)
	if !p.HasLLC || !p.LLC.IsXID() {
		t.Fatalf("LLC/XID not decoded: %+v", p)
	}
	if p.L3Name() != "XID/LLC" {
		t.Fatalf("L3Name = %q", p.L3Name())
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{Op: ARPRequest, SenderHW: macA, SenderIP: [4]byte{192, 168, 10, 10}, TargetIP: [4]byte{192, 168, 10, 11}}
	frame := Serialize(&Ethernet{Src: macA, Dst: netx.Broadcast, EtherType: EtherTypeARP}, a)
	p := Decode(frame)
	if !p.HasARP || p.ARP.Op != ARPRequest || p.ARP.SenderHW != macA {
		t.Fatalf("ARP decode: %+v", p.ARP)
	}
	if !p.IsLocal() {
		t.Fatal("broadcast ARP should be local")
	}
}

func TestIPv4UDPRoundTrip(t *testing.T) {
	udp := &UDP{SrcPort: 5353, DstPort: 5353}
	udp.SetAddrs(ipA, netx.MDNSv4Group)
	frame := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.MDNSv4Group), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoUDP, Src: ipA, Dst: netx.MDNSv4Group, TTL: 255},
		udp, RawPayload("mdns-query"))
	p := Decode(frame)
	if !p.HasIP4 || !p.HasUDP {
		t.Fatalf("decode flags: %+v", p)
	}
	if p.UDP.SrcPort != 5353 || p.UDP.DstPort != 5353 {
		t.Fatalf("ports: %d→%d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if string(p.AppPayload) != "mdns-query" {
		t.Fatalf("payload %q", p.AppPayload)
	}
	if p.DstIP() != netx.MDNSv4Group {
		t.Fatalf("dst %v", p.DstIP())
	}
	// IPv4 header checksum must verify.
	if netx.Checksum(frame[14:34], 0) != 0 {
		t.Fatal("IPv4 header checksum does not verify")
	}
}

func TestIPv4TCPRoundTrip(t *testing.T) {
	tcp := &TCP{SrcPort: 40000, DstPort: 8009, Seq: 1000, Ack: 2000, Flags: TCPSyn | TCPAck}
	tcp.SetAddrs(ipA, ipB)
	frame := Serialize(
		&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoTCP, Src: ipA, Dst: ipB},
		tcp, RawPayload("x"))
	p := Decode(frame)
	if !p.HasTCP || !p.TCP.FlagSet(TCPSyn|TCPAck) || p.TCP.Seq != 1000 {
		t.Fatalf("TCP decode: %+v", p.TCP)
	}
	if string(p.AppPayload) != "x" {
		t.Fatalf("payload %q", p.AppPayload)
	}
	proto, s, d := p.Transport()
	if proto != "tcp" || s != 40000 || d != 8009 {
		t.Fatalf("Transport() = %s %d %d", proto, s, d)
	}
}

func TestIPv6ICMPv6NeighborAdvert(t *testing.T) {
	src := netx.LinkLocalV6(macA)
	ic := &ICMPv6{Type: ICMPv6NeighborAdvert, Target: src, LinkAddr: macA, HasLink: true}
	frame := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.AllNodesV6), EtherType: EtherTypeIPv6},
		&IPv6{TrafficClass: 0x12, NextHeader: IPProtoICMPv6, Src: src, Dst: netx.AllNodesV6},
		ic)
	p := Decode(frame)
	if !p.HasICMP6 {
		t.Fatal("no ICMPv6")
	}
	if p.IP6.TrafficClass != 0x12 {
		t.Fatalf("traffic class %#x, want 0x12", p.IP6.TrafficClass)
	}
	if !p.ICMP6.HasLink || p.ICMP6.LinkAddr != macA {
		t.Fatalf("link-layer option lost: %+v", p.ICMP6)
	}
	if p.ICMP6.Target != src {
		t.Fatalf("target %v", p.ICMP6.Target)
	}
}

func TestIGMPv3Report(t *testing.T) {
	g := &IGMP{Type: IGMPv3Report, Group: netx.SSDPGroup}
	frame := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.IGMPGroup), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoIGMP, Src: ipA, Dst: netx.IGMPGroup},
		g)
	p := Decode(frame)
	if !p.HasIGMP || p.IGMP.Group != netx.SSDPGroup {
		t.Fatalf("IGMP decode: %+v", p.IGMP)
	}
}

func TestEAPOLRoundTrip(t *testing.T) {
	e := &EAPOL{Version: 2, PacketType: 3, Body: []byte{1, 2, 3, 4}}
	frame := Serialize(&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeEAPOL}, e)
	p := Decode(frame)
	if !p.HasEAPOL || p.EAPOL.PacketType != 3 || len(p.EAPOL.Body) != 4 {
		t.Fatalf("EAPOL decode: %+v", p.EAPOL)
	}
	if p.L3Name() != "EAPOL" {
		t.Fatalf("L3Name = %q", p.L3Name())
	}
}

func TestLocalTrafficFilter(t *testing.T) {
	mk := func(src, dst netip.Addr) *Packet {
		udp := &UDP{SrcPort: 1, DstPort: 2}
		udp.SetAddrs(src, dst)
		frame := Serialize(
			&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4},
			&IPv4{Protocol: IPProtoUDP, Src: src, Dst: dst}, udp)
		return Decode(frame)
	}
	if !mk(ipA, ipB).IsLocal() {
		t.Fatal("private↔private not local")
	}
	if mk(ipA, netip.MustParseAddr("52.94.0.1")).IsLocal() {
		t.Fatal("private→public flagged local")
	}
}

func TestDecodeTruncated(t *testing.T) {
	for n := 0; n < 14; n++ {
		p := Decode(make([]byte, n))
		if p.Err == nil {
			t.Fatalf("no error for %d-byte frame", n)
		}
	}
	// Truncated IP header after valid Ethernet.
	frame := Serialize(&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4}, RawPayload("abc"))
	if p := Decode(frame); p.Err == nil {
		t.Fatal("truncated IPv4 accepted")
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		Decode(data) // must not panic on any input
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPChecksumVerifies(t *testing.T) {
	udp := &UDP{SrcPort: 9999, DstPort: 9999}
	udp.SetAddrs(ipA, ipB)
	seg := Serialize(udp, RawPayload("tplink"))
	sum := netx.PseudoHeaderSum(ipA, ipB, IPProtoUDP, len(seg))
	if netx.Checksum(seg, sum) != 0 {
		t.Fatal("UDP checksum does not verify against pseudo-header")
	}
}

func TestDecodeIntoReuse(t *testing.T) {
	udp := &UDP{SrcPort: 1900, DstPort: 1900}
	udp.SetAddrs(ipA, netx.SSDPGroup)
	frame1 := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.SSDPGroup), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoUDP, Src: ipA, Dst: netx.SSDPGroup}, udp, RawPayload("NOTIFY"))
	frame2 := Serialize(&Ethernet{Src: macB, Dst: macA, EtherType: EtherTypeARP},
		&ARP{Op: ARPReply, SenderHW: macB})
	var p Packet
	p.DecodeInto(frame1)
	if !p.HasUDP {
		t.Fatal("first decode missed UDP")
	}
	p.DecodeInto(frame2)
	if p.HasUDP || !p.HasARP {
		t.Fatalf("stale state after reuse: %+v", p)
	}
}

func BenchmarkDecodeAllocPerPacket(b *testing.B) {
	udp := &UDP{SrcPort: 5353, DstPort: 5353}
	udp.SetAddrs(ipA, netx.MDNSv4Group)
	frame := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.MDNSv4Group), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoUDP, Src: ipA, Dst: netx.MDNSv4Group}, udp,
		RawPayload(make([]byte, 100)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Decode(frame)
	}
}

func BenchmarkDecodeReuse(b *testing.B) {
	udp := &UDP{SrcPort: 5353, DstPort: 5353}
	udp.SetAddrs(ipA, netx.MDNSv4Group)
	frame := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.MDNSv4Group), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoUDP, Src: ipA, Dst: netx.MDNSv4Group}, udp,
		RawPayload(make([]byte, 100)))
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.DecodeInto(frame)
	}
}
