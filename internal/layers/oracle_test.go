package layers

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"iotlan/internal/netx"
)

// oracleSerialize is the allocate-and-copy Serialize that the one-buffer
// encoder replaced: each layer made a buffer of its own header plus a copy
// of everything after it. It is kept as the reference the encoder must
// match byte for byte.
func oracleSerialize(ls ...Serializable) []byte {
	var payload []byte
	for i := len(ls) - 1; i >= 0; i-- {
		payload = oracleSerializeTo(ls[i], payload)
	}
	return payload
}

// oracleSerializeTo is the per-layer SerializeTo chain, one case per layer.
func oracleSerializeTo(l Serializable, payload []byte) []byte {
	switch l := l.(type) {
	case RawPayload:
		return append([]byte(l), payload...)
	case *Ethernet:
		out := make([]byte, 14+len(payload))
		copy(out[0:6], l.Dst[:])
		copy(out[6:12], l.Src[:])
		et := l.EtherType
		if l.Is8023() {
			et = uint16(len(payload))
		}
		binary.BigEndian.PutUint16(out[12:14], et)
		copy(out[14:], payload)
		return out
	case *ARP:
		out := make([]byte, 28+len(payload))
		binary.BigEndian.PutUint16(out[0:2], 1)
		binary.BigEndian.PutUint16(out[2:4], EtherTypeIPv4)
		out[4], out[5] = 6, 4
		binary.BigEndian.PutUint16(out[6:8], l.Op)
		copy(out[8:14], l.SenderHW[:])
		copy(out[14:18], l.SenderIP[:])
		copy(out[18:24], l.TargetHW[:])
		copy(out[24:28], l.TargetIP[:])
		copy(out[28:], payload)
		return out
	case *EAPOL:
		out := make([]byte, 4+len(l.Body)+len(payload))
		out[0], out[1] = l.Version, l.PacketType
		binary.BigEndian.PutUint16(out[2:4], uint16(len(l.Body)))
		copy(out[4:], l.Body)
		copy(out[4+len(l.Body):], payload)
		return out
	case *LLC:
		out := make([]byte, 3+len(l.Info)+len(payload))
		out[0], out[1], out[2] = l.DSAP, l.SSAP, l.Control
		copy(out[3:], l.Info)
		copy(out[3+len(l.Info):], payload)
		return out
	case *IPv4:
		out := make([]byte, 20+len(payload))
		out[0] = 0x45
		out[1] = l.TOS
		binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
		binary.BigEndian.PutUint16(out[4:6], l.ID)
		ttl := l.TTL
		if ttl == 0 {
			ttl = 64
		}
		out[8] = ttl
		out[9] = l.Protocol
		if l.Src.IsValid() {
			src := l.Src.As4()
			copy(out[12:16], src[:])
		}
		if l.Dst.IsValid() {
			dst := l.Dst.As4()
			copy(out[16:20], dst[:])
		}
		binary.BigEndian.PutUint16(out[10:12], netx.Checksum(out[:20], 0))
		copy(out[20:], payload)
		return out
	case *IPv6:
		out := make([]byte, 40+len(payload))
		out[0] = 0x60 | l.TrafficClass>>4
		out[1] = l.TrafficClass << 4
		binary.BigEndian.PutUint16(out[4:6], uint16(len(payload)))
		out[6] = l.NextHeader
		hl := l.HopLimit
		if hl == 0 {
			hl = 255
		}
		out[7] = hl
		src, dst := l.Src.As16(), l.Dst.As16()
		copy(out[8:24], src[:])
		copy(out[24:40], dst[:])
		copy(out[40:], payload)
		return out
	case *UDP:
		out := make([]byte, 8+len(payload))
		binary.BigEndian.PutUint16(out[0:2], l.SrcPort)
		binary.BigEndian.PutUint16(out[2:4], l.DstPort)
		binary.BigEndian.PutUint16(out[4:6], uint16(len(out)))
		copy(out[8:], payload)
		if l.srcIP.IsValid() && l.dstIP.IsValid() {
			sum := netx.PseudoHeaderSum(l.srcIP, l.dstIP, IPProtoUDP, len(out))
			cs := netx.Checksum(out, sum)
			if cs == 0 {
				cs = 0xffff
			}
			binary.BigEndian.PutUint16(out[6:8], cs)
		}
		return out
	case *TCP:
		out := make([]byte, 20+len(payload))
		binary.BigEndian.PutUint16(out[0:2], l.SrcPort)
		binary.BigEndian.PutUint16(out[2:4], l.DstPort)
		binary.BigEndian.PutUint32(out[4:8], l.Seq)
		binary.BigEndian.PutUint32(out[8:12], l.Ack)
		out[12] = 5 << 4
		out[13] = l.Flags
		w := l.Window
		if w == 0 {
			w = 65535
		}
		binary.BigEndian.PutUint16(out[14:16], w)
		copy(out[20:], payload)
		if l.srcIP.IsValid() && l.dstIP.IsValid() {
			sum := netx.PseudoHeaderSum(l.srcIP, l.dstIP, IPProtoTCP, len(out))
			binary.BigEndian.PutUint16(out[16:18], netx.Checksum(out, sum))
		}
		return out
	case *ICMPv4:
		out := make([]byte, 8+len(l.Data)+len(payload))
		out[0], out[1] = l.Type, l.Code
		binary.BigEndian.PutUint16(out[4:6], l.ID)
		binary.BigEndian.PutUint16(out[6:8], l.Seq)
		copy(out[8:], l.Data)
		copy(out[8+len(l.Data):], payload)
		binary.BigEndian.PutUint16(out[2:4], netx.Checksum(out, 0))
		return out
	case *ICMPv6:
		body := l.Data
		if l.Type == ICMPv6NeighborSolicit || l.Type == ICMPv6NeighborAdvert {
			b := make([]byte, 20)
			tgt := l.Target.As16()
			copy(b[4:20], tgt[:])
			if l.HasLink {
				opt := make([]byte, 8)
				if l.Type == ICMPv6NeighborSolicit {
					opt[0] = 1
				} else {
					opt[0] = 2
				}
				opt[1] = 1
				copy(opt[2:8], l.LinkAddr[:])
				b = append(b, opt...)
			}
			body = b
		}
		out := make([]byte, 4+len(body)+len(payload))
		out[0], out[1] = l.Type, l.Code
		copy(out[4:], body)
		copy(out[4+len(body):], payload)
		binary.BigEndian.PutUint16(out[2:4], netx.Checksum(out, 0))
		return out
	case *IGMP:
		var out []byte
		grp := l.Group.As4()
		if l.Type == IGMPv3Report {
			out = make([]byte, 16+len(payload))
			out[0] = l.Type
			binary.BigEndian.PutUint16(out[6:8], 1)
			out[8] = 4
			copy(out[12:16], grp[:])
		} else {
			out = make([]byte, 8+len(payload))
			out[0] = l.Type
			copy(out[4:8], grp[:])
		}
		binary.BigEndian.PutUint16(out[2:4], netx.Checksum(out, 0))
		copy(out[len(out)-len(payload):], payload)
		return out
	}
	panic(fmt.Sprintf("oracleSerializeTo: no case for %T", l))
}

// stackGen draws random layer stacks covering every layer the encoder
// writes.
type stackGen struct{ rng *rand.Rand }

func (g stackGen) bytes(max int) []byte {
	b := make([]byte, g.rng.Intn(max+1))
	g.rng.Read(b)
	return b
}

// payload is a raw payload of odd, even or zero length.
func (g stackGen) payload() RawPayload {
	switch g.rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return RawPayload{}
	}
	return RawPayload(g.bytes(300))
}

func (g stackGen) mac() (m netx.MAC) {
	g.rng.Read(m[:])
	return m
}

func (g stackGen) ip4() netip.Addr {
	var a [4]byte
	g.rng.Read(a[:])
	return netip.AddrFrom4(a)
}

func (g stackGen) ip6() netip.Addr {
	var a [16]byte
	g.rng.Read(a[:])
	return netip.AddrFrom16(a)
}

// transport returns a transport (or ICMP/IGMP) stack with its IP protocol
// number; src and dst feed the pseudo-header checksums.
func (g stackGen) transport(v6 bool, src, dst netip.Addr) ([]Serializable, uint8) {
	u16 := func() uint16 { return uint16(g.rng.Uint32()) }
	setAddrs := g.rng.Intn(4) != 0 // sometimes unset: no checksum
	switch g.rng.Intn(5) {
	case 0:
		u := &UDP{SrcPort: u16(), DstPort: u16()}
		if setAddrs {
			u.SetAddrs(src, dst)
		}
		return []Serializable{u, g.payload()}, IPProtoUDP
	case 1:
		t := &TCP{SrcPort: u16(), DstPort: u16(), Seq: g.rng.Uint32(), Ack: g.rng.Uint32(),
			Flags: uint8(g.rng.Intn(64)), Window: u16() * uint16(g.rng.Intn(2))}
		if setAddrs {
			t.SetAddrs(src, dst)
		}
		return []Serializable{t, g.payload()}, IPProtoTCP
	case 2:
		ic := &ICMPv4{Type: uint8(g.rng.Intn(9)), Code: uint8(g.rng.Intn(4)), ID: u16(), Seq: u16(), Data: g.bytes(40)}
		return []Serializable{ic, g.payload()}, IPProtoICMP
	case 3:
		if v6 {
			typ := []uint8{ICMPv6EchoRequest, ICMPv6EchoReply, ICMPv6NeighborSolicit, ICMPv6NeighborAdvert}[g.rng.Intn(4)]
			ic := &ICMPv6{Type: typ, Code: uint8(g.rng.Intn(2)), Data: g.bytes(40),
				Target: g.ip6(), LinkAddr: g.mac(), HasLink: g.rng.Intn(2) == 0}
			return []Serializable{ic, g.payload()}, IPProtoICMPv6
		}
		typ := []uint8{IGMPv2Report, IGMPv3Report, IGMPLeave, IGMPQuery}[g.rng.Intn(4)]
		return []Serializable{&IGMP{Type: typ, Group: g.ip4()}, g.payload()}, IPProtoIGMP
	}
	return []Serializable{g.payload()}, uint8(g.rng.Intn(256))
}

// network returns an IPv4 or IPv6 stack and its EtherType.
func (g stackGen) network() ([]Serializable, uint16) {
	if g.rng.Intn(2) == 0 {
		src, dst := g.ip4(), g.ip4()
		if g.rng.Intn(8) == 0 {
			src = netip.Addr{} // a DHCP client before it has an address
		}
		rest, proto := g.transport(false, src, dst)
		ip := &IPv4{TOS: uint8(g.rng.Intn(256)), ID: uint16(g.rng.Uint32()), TTL: uint8(g.rng.Intn(3) * 64),
			Protocol: proto, Src: src, Dst: dst}
		return append([]Serializable{ip}, rest...), EtherTypeIPv4
	}
	src, dst := g.ip6(), g.ip6()
	rest, proto := g.transport(true, src, dst)
	ip := &IPv6{TrafficClass: uint8(g.rng.Intn(256)), NextHeader: proto, HopLimit: uint8(g.rng.Intn(2) * 64),
		Src: src, Dst: dst}
	return append([]Serializable{ip}, rest...), EtherTypeIPv6
}

// frame returns a full Ethernet frame's layers.
func (g stackGen) frame() []Serializable {
	eth := &Ethernet{Src: g.mac(), Dst: g.mac()}
	var rest []Serializable
	switch g.rng.Intn(5) {
	case 0:
		eth.EtherType = uint16(g.rng.Intn(1501)) // 802.3: the encoder writes the length
		rest = []Serializable{&LLC{DSAP: uint8(g.rng.Intn(256)), SSAP: uint8(g.rng.Intn(256)),
			Control: []uint8{0xaf, 0xbf, 0x03}[g.rng.Intn(3)], Info: g.bytes(9)}}
	case 1:
		eth.EtherType = EtherTypeARP
		rest = []Serializable{&ARP{Op: uint16(1 + g.rng.Intn(2)), SenderHW: g.mac(), SenderIP: g.ip4().As4(),
			TargetHW: g.mac(), TargetIP: g.ip4().As4()}}
	case 2:
		eth.EtherType = EtherTypeEAPOL
		rest = []Serializable{&EAPOL{Version: 2, PacketType: uint8(g.rng.Intn(5)), Body: g.bytes(99)}}
	default:
		rest, eth.EtherType = g.network()
	}
	return append([]Serializable{eth}, rest...)
}

// Seeded random stacks, whole frames and the inner stacks a caller may
// serialize alone, must encode to the oracle's bytes.
func TestSerializeMatchesOracle(t *testing.T) {
	g := stackGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 5000; i++ {
		ls := g.frame()
		ls = ls[g.rng.Intn(len(ls)):] // every suffix is a stack too
		want := oracleSerialize(ls...)
		got := Serialize(ls...)
		if !bytes.Equal(got, want) {
			t.Fatalf("stack %d %s:\ngot    %x\noracle %x", i, describe(ls), got, want)
		}
	}
}

func describe(ls []Serializable) string {
	var b bytes.Buffer
	for _, l := range ls {
		fmt.Fprintf(&b, "%T ", l)
	}
	return b.String()
}
