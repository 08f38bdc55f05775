// Package layers implements byte-accurate encoding and decoding of the
// link-, network- and transport-layer protocols observed in the study:
// Ethernet, ARP, IPv4, IPv6, UDP, TCP, ICMPv4, ICMPv6 (NDP), IGMP, EAPOL and
// LLC/XID. The design follows gopacket: each protocol has DecodeFromBytes
// and a serializer that writes into one frame buffer, and Packet assembles a
// layer stack from raw frame bytes.
package layers

import "errors"

// LayerType identifies a protocol layer.
type LayerType uint16

// Layer types for every protocol the decoder understands.
const (
	LayerTypeUnknown LayerType = iota
	LayerTypeEthernet
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeUDP
	LayerTypeTCP
	LayerTypeICMPv4
	LayerTypeICMPv6
	LayerTypeIGMP
	LayerTypeEAPOL
	LayerTypeLLC
	LayerTypePayload
)

// Common decode errors.
var (
	ErrShort       = errors.New("layers: truncated packet")
	ErrBadChecksum = errors.New("layers: bad checksum")
	ErrBadVersion  = errors.New("layers: bad version")
)

// EtherTypes and IP protocol numbers used across the package.
const (
	EtherTypeIPv4  = 0x0800
	EtherTypeARP   = 0x0806
	EtherTypeIPv6  = 0x86dd
	EtherTypeEAPOL = 0x888e

	IPProtoICMP   = 1
	IPProtoIGMP   = 2
	IPProtoTCP    = 6
	IPProtoUDP    = 17
	IPProtoICMPv6 = 58
)

// Serialize builds a frame from layers outermost-first, e.g.
// Serialize(eth, ip, udp, payload), in one buffer sized from every layer's
// SerializedLen. The layers are written innermost first, so each one finds
// the bytes of everything after it in place when it fills its lengths and
// checksums.
func Serialize(ls ...Serializable) []byte {
	n := 0
	for _, l := range ls {
		n += l.SerializedLen()
	}
	b := make([]byte, n)
	for i := len(ls) - 1; i >= 0; i-- {
		n -= ls[i].SerializedLen()
		ls[i].SerializeInto(b[n:])
	}
	return b
}

// Serializable is a layer that Serialize can write; RawPayload is one too.
type Serializable interface {
	// SerializedLen is the number of bytes the layer writes ahead of the
	// layers after it: its header and any body it carries itself.
	SerializedLen() int
	// SerializeInto writes the layer into b[:SerializedLen()], which is
	// zero on entry. The rest of b already holds the serialized layers
	// after it, which the layer reads for its length fields and checksums.
	SerializeInto(b []byte)
}

// RawPayload is an opaque application payload at the bottom of a stack.
type RawPayload []byte

// SerializedLen implements Serializable.
func (p RawPayload) SerializedLen() int { return len(p) }

// SerializeInto implements Serializable.
func (p RawPayload) SerializeInto(b []byte) { copy(b, p) }
