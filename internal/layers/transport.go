package layers

import (
	"encoding/binary"
	"net/netip"

	"iotlan/internal/netx"
)

// UDP is a UDP header (RFC 768). Src/Dst addresses must be set before
// SerializeInto so the pseudo-header checksum can be computed; on decode
// they are provided by the enclosing IP layer via SetAddrs.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	srcIP, dstIP     netip.Addr
}

// SetAddrs supplies the IP endpoints used for the checksum pseudo-header.
func (u *UDP) SetAddrs(src, dst netip.Addr) { u.srcIP, u.dstIP = src, dst }

// DecodeFromBytes parses the layer from data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrShort
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	return nil
}

// Payload returns the datagram payload, bounded by the length field.
func (u *UDP) Payload(data []byte) []byte {
	end := int(u.Length)
	if end > len(data) || end < 8 {
		end = len(data)
	}
	return data[8:end]
}

// UDPHeaderLen is the size of a UDP header.
const UDPHeaderLen = 8

// SerializedLen implements Serializable.
func (u *UDP) SerializedLen() int { return UDPHeaderLen }

// SerializeInto implements Serializable. The datagram is all of b.
func (u *UDP) SerializeInto(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(b)))
	if u.srcIP.IsValid() && u.dstIP.IsValid() {
		sum := netx.PseudoHeaderSum(u.srcIP, u.dstIP, IPProtoUDP, len(b))
		cs := netx.Checksum(b, sum)
		if cs == 0 {
			cs = 0xffff
		}
		binary.BigEndian.PutUint16(b[6:8], cs)
	}
}

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header (RFC 793) without options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	dataOffset       int
	srcIP, dstIP     netip.Addr
}

// SetAddrs supplies the IP endpoints used for the checksum pseudo-header.
func (t *TCP) SetAddrs(src, dst netip.Addr) { t.srcIP, t.dstIP = src, dst }

// FlagSet reports whether all bits in f are set.
func (t *TCP) FlagSet(f uint8) bool { return t.Flags&f == f }

// DecodeFromBytes parses the layer from data.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrShort
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.dataOffset = int(data[12]>>4) * 4
	if t.dataOffset < 20 || len(data) < t.dataOffset {
		return ErrShort
	}
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	return nil
}

// Payload returns the segment payload.
func (t *TCP) Payload(data []byte) []byte {
	off := t.dataOffset
	if off == 0 {
		off = 20
	}
	if off > len(data) {
		return nil
	}
	return data[off:]
}

// TCPHeaderLen is the size of the option-less TCP header we emit.
const TCPHeaderLen = 20

// SerializedLen implements Serializable.
func (t *TCP) SerializedLen() int { return TCPHeaderLen }

// SerializeInto implements Serializable. The segment is all of b.
func (t *TCP) SerializeInto(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = 5 << 4
	b[13] = t.Flags
	w := t.Window
	if w == 0 {
		w = 65535
	}
	binary.BigEndian.PutUint16(b[14:16], w)
	if t.srcIP.IsValid() && t.dstIP.IsValid() {
		sum := netx.PseudoHeaderSum(t.srcIP, t.dstIP, IPProtoTCP, len(b))
		binary.BigEndian.PutUint16(b[16:18], netx.Checksum(b, sum))
	}
}

// ICMPv4 message types used in the study.
const (
	ICMPv4EchoReply   = 0
	ICMPv4Unreachable = 3
	ICMPv4Echo        = 8
)

// ICMPv4 is an ICMP message (RFC 792).
type ICMPv4 struct {
	Type, Code uint8
	ID, Seq    uint16
	Data       []byte
}

// DecodeFromBytes parses the layer from data.
func (ic *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrShort
	}
	ic.Type, ic.Code = data[0], data[1]
	ic.ID = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	ic.Data = data[8:]
	return nil
}

// SerializedLen implements Serializable.
func (ic *ICMPv4) SerializedLen() int { return 8 + len(ic.Data) }

// SerializeInto implements Serializable. The checksum covers all of b.
func (ic *ICMPv4) SerializeInto(b []byte) {
	b[0], b[1] = ic.Type, ic.Code
	binary.BigEndian.PutUint16(b[4:6], ic.ID)
	binary.BigEndian.PutUint16(b[6:8], ic.Seq)
	copy(b[8:], ic.Data)
	binary.BigEndian.PutUint16(b[2:4], netx.Checksum(b, 0))
}

// ICMPv6 message types used in the study (NDP per RFC 4861).
const (
	ICMPv6EchoRequest     = 128
	ICMPv6EchoReply       = 129
	ICMPv6RouterSolicit   = 133
	ICMPv6RouterAdvert    = 134
	ICMPv6NeighborSolicit = 135
	ICMPv6NeighborAdvert  = 136
	ICMPv6MLDv2Report     = 143
)

// ICMPv6 is an ICMPv6 message. For neighbor solicitation/advertisement the
// Target field holds the subject address and LinkAddr the source/target
// link-layer address option — the MAC exposure channel §5.1 describes.
type ICMPv6 struct {
	Type, Code uint8
	Target     netip.Addr
	LinkAddr   netx.MAC
	HasLink    bool
	Data       []byte
}

// DecodeFromBytes parses the layer from data.
func (ic *ICMPv6) DecodeFromBytes(data []byte) error {
	if len(data) < 4 {
		return ErrShort
	}
	ic.Type, ic.Code = data[0], data[1]
	ic.Data = data[4:]
	ic.HasLink = false
	if ic.Type == ICMPv6NeighborSolicit || ic.Type == ICMPv6NeighborAdvert {
		if len(data) < 24 {
			return ErrShort
		}
		ic.Target = netip.AddrFrom16([16]byte(data[8:24]))
		// Options: type 1 (source LL addr) or 2 (target LL addr), len 1 (8B).
		opts := data[24:]
		for len(opts) >= 8 {
			if (opts[0] == 1 || opts[0] == 2) && opts[1] == 1 {
				copy(ic.LinkAddr[:], opts[2:8])
				ic.HasLink = true
			}
			n := int(opts[1]) * 8
			if n == 0 || n > len(opts) {
				break
			}
			opts = opts[n:]
		}
	}
	return nil
}

// isNDP reports whether the message is a neighbor solicitation or
// advertisement, whose body is the target and link-layer option rather
// than Data.
func (ic *ICMPv6) isNDP() bool {
	return ic.Type == ICMPv6NeighborSolicit || ic.Type == ICMPv6NeighborAdvert
}

// SerializedLen implements Serializable.
func (ic *ICMPv6) SerializedLen() int {
	switch {
	case !ic.isNDP():
		return 4 + len(ic.Data)
	case ic.HasLink:
		return 32
	}
	return 24
}

// SerializeInto implements Serializable. The checksum covers all of b.
func (ic *ICMPv6) SerializeInto(b []byte) {
	b[0], b[1] = ic.Type, ic.Code
	if !ic.isNDP() {
		copy(b[4:], ic.Data)
	} else {
		tgt := ic.Target.As16()
		copy(b[8:24], tgt[:])
		if ic.HasLink {
			b[24] = 2 // target link-layer address
			if ic.Type == ICMPv6NeighborSolicit {
				b[24] = 1 // source link-layer address
			}
			b[25] = 1 // length in 8-byte units
			copy(b[26:32], ic.LinkAddr[:])
		}
	}
	// Checksum over pseudo-header is filled by the stack; a plain sum keeps
	// offline-constructed packets self-consistent.
	binary.BigEndian.PutUint16(b[2:4], netx.Checksum(b, 0))
}

// IGMP group membership message types.
const (
	IGMPQuery    = 0x11
	IGMPv2Report = 0x16
	IGMPv3Report = 0x22
	IGMPLeave    = 0x17
)

// IGMP is an IGMPv2/v3 membership message (RFC 2236 / 3376, v3 reports
// carry a single group record, which covers the study's traffic).
type IGMP struct {
	Type  uint8
	Group netip.Addr
}

// DecodeFromBytes parses the layer from data.
func (g *IGMP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrShort
	}
	g.Type = data[0]
	if g.Type == IGMPv3Report {
		if len(data) < 16 {
			return ErrShort
		}
		g.Group = netip.AddrFrom4([4]byte(data[12:16]))
	} else {
		g.Group = netip.AddrFrom4([4]byte(data[4:8]))
	}
	return nil
}

// SerializedLen implements Serializable: a v3 report carries one group
// record.
func (g *IGMP) SerializedLen() int {
	if g.Type == IGMPv3Report {
		return 16
	}
	return 8
}

// SerializeInto implements Serializable. The checksum covers the message
// alone, not what follows it.
func (g *IGMP) SerializeInto(b []byte) {
	grp := g.Group.As4()
	b = b[:g.SerializedLen()]
	b[0] = g.Type
	if g.Type == IGMPv3Report {
		binary.BigEndian.PutUint16(b[6:8], 1) // one group record
		b[8] = 4                              // CHANGE_TO_EXCLUDE (join)
		copy(b[12:16], grp[:])
	} else {
		copy(b[4:8], grp[:])
	}
	binary.BigEndian.PutUint16(b[2:4], netx.Checksum(b, 0))
}
