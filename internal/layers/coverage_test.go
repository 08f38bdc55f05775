package layers

import (
	"testing"

	"iotlan/internal/netx"
)

func TestIPv6TCPDecode(t *testing.T) {
	src, dst := netx.LinkLocalV6(macA), netx.LinkLocalV6(macB)
	tcp := &TCP{SrcPort: 1000, DstPort: 2000, Flags: TCPSyn}
	tcp.SetAddrs(src, dst)
	frame := Serialize(
		&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtoTCP, Src: src, Dst: dst},
		tcp)
	p := Decode(frame)
	if !p.HasIP6 || !p.HasTCP {
		t.Fatalf("flags: ip6=%v tcp=%v", p.HasIP6, p.HasTCP)
	}
	if p.SrcIP() != src || p.DstIP() != dst {
		t.Fatalf("addrs %v %v", p.SrcIP(), p.DstIP())
	}
	proto, s, d := p.Transport()
	if proto != "tcp" || s != 1000 || d != 2000 {
		t.Fatalf("transport %s %d %d", proto, s, d)
	}
}

func TestIPv6UDPAndIGMPDecodePaths(t *testing.T) {
	src := netx.LinkLocalV6(macA)
	udp := &UDP{SrcPort: 5353, DstPort: 5353}
	udp.SetAddrs(src, netx.MDNSv6Group)
	frame := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.MDNSv6Group), EtherType: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtoUDP, Src: src, Dst: netx.MDNSv6Group},
		udp, RawPayload("x"))
	p := Decode(frame)
	if !p.HasUDP || string(p.AppPayload) != "x" {
		t.Fatalf("v6 UDP decode: %+v", p)
	}
	if p.L3Name() != "UDP" {
		t.Fatalf("L3Name %q", p.L3Name())
	}

	// IGMPv2 leave path.
	g := &IGMP{Type: IGMPLeave, Group: netx.SSDPGroup}
	frame2 := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.AllNodesV4), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoIGMP, Src: ipA, Dst: netx.AllNodesV4},
		g)
	p2 := Decode(frame2)
	if !p2.HasIGMP || p2.IGMP.Type != IGMPLeave || p2.IGMP.Group != netx.SSDPGroup {
		t.Fatalf("IGMP leave decode: %+v", p2.IGMP)
	}
	if p2.L3Name() != "IGMP" {
		t.Fatalf("L3Name %q", p2.L3Name())
	}
}

func TestL3NameBranches(t *testing.T) {
	// ICMPv4
	icmp := Serialize(
		&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoICMP, Src: ipA, Dst: ipB},
		&ICMPv4{Type: ICMPv4Echo})
	if got := Decode(icmp).L3Name(); got != "ICMP" {
		t.Errorf("icmp L3Name %q", got)
	}
	// ICMPv6
	src := netx.LinkLocalV6(macA)
	icmp6 := Serialize(
		&Ethernet{Src: macA, Dst: netx.MulticastMAC(netx.AllNodesV6), EtherType: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtoICMPv6, Src: src, Dst: netx.AllNodesV6},
		&ICMPv6{Type: ICMPv6EchoRequest})
	if got := Decode(icmp6).L3Name(); got != "ICMPv6" {
		t.Errorf("icmp6 L3Name %q", got)
	}
	// Unknown L3 protocol (GRE).
	unk := Serialize(
		&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4},
		&IPv4{Protocol: 47, Src: ipA, Dst: ipB},
		RawPayload{0, 0})
	if got := Decode(unk).L3Name(); got != "UNKNOWN-L3" {
		t.Errorf("unknown-proto L3Name %q", got)
	}
	// TCP
	tcp := &TCP{SrcPort: 1, DstPort: 2, Flags: TCPSyn}
	tcp.SetAddrs(ipA, ipB)
	tf := Serialize(&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4},
		&IPv4{Protocol: IPProtoTCP, Src: ipA, Dst: ipB}, tcp)
	if got := Decode(tf).L3Name(); got != "TCP" {
		t.Errorf("tcp L3Name %q", got)
	}
}

func TestIsLocalNonEthernet(t *testing.T) {
	p := Decode(nil)
	if p.IsLocal() {
		t.Fatal("empty packet flagged local")
	}
}

func TestEAPOLTruncatedBody(t *testing.T) {
	var e EAPOL
	// Claims 10-byte body but supplies 2.
	if err := e.DecodeFromBytes([]byte{2, 3, 0, 10, 1, 2}); err == nil {
		t.Fatal("truncated EAPOL accepted")
	}
}

func TestARPBadHardwareType(t *testing.T) {
	raw := make([]byte, 28)
	raw[0], raw[1] = 0, 2 // hardware type 2
	var a ARP
	if err := a.DecodeFromBytes(raw); err == nil {
		t.Fatal("non-ethernet ARP accepted")
	}
}

func TestIPv6PayloadBounds(t *testing.T) {
	ip := &IPv6{}
	data := make([]byte, 40)
	data[0] = 0x60
	data[4], data[5] = 0xff, 0xff // claims huge length
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if got := ip.Payload(data); len(got) != 0 {
		t.Fatalf("payload length %d for truncated packet", len(got))
	}
}

func TestUDPPayloadBounds(t *testing.T) {
	u := &UDP{}
	seg := make([]byte, 8)
	seg[4], seg[5] = 0, 4 // length 4 < header size
	if err := u.DecodeFromBytes(seg); err != nil {
		t.Fatal(err)
	}
	if got := u.Payload(seg); len(got) != 0 {
		t.Fatalf("bogus-length payload %d", len(got))
	}
}

func TestSerializeHelperOrder(t *testing.T) {
	// Serialize applies outermost-first: payload must be innermost.
	frame := Serialize(
		&Ethernet{Src: macA, Dst: macB, EtherType: EtherTypeIPv4},
		RawPayload("inner"))
	if string(frame[14:]) != "inner" {
		t.Fatalf("frame body %q", frame[14:])
	}
}
