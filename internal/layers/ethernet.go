package layers

import (
	"encoding/binary"

	"iotlan/internal/netx"
)

// Ethernet is an Ethernet II frame header, or an 802.3 frame when the
// type/length field holds a length (<= 1500), in which case the payload is
// LLC (decoded as LayerTypeLLC).
type Ethernet struct {
	Src, Dst  netx.MAC
	EtherType uint16 // or length for 802.3
}

// Is8023 reports whether the frame is 802.3 (length field) rather than
// Ethernet II, meaning its payload is LLC.
func (e *Ethernet) Is8023() bool { return e.EtherType <= 1500 }

// DecodeFromBytes parses the layer from data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < 14 {
		return ErrShort
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return nil
}

// EthernetHeaderLen is the size of an Ethernet header.
const EthernetHeaderLen = 14

// SerializedLen implements Serializable.
func (e *Ethernet) SerializedLen() int { return EthernetHeaderLen }

// SerializeInto implements Serializable.
func (e *Ethernet) SerializeInto(b []byte) {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	et := e.EtherType
	if e.Is8023() {
		// 802.3: the field carries the payload length.
		et = uint16(len(b) - EthernetHeaderLen)
	}
	binary.BigEndian.PutUint16(b[12:14], et)
}

// NextLayerType maps the EtherType to the contained protocol.
func (e *Ethernet) NextLayerType() LayerType {
	if e.Is8023() {
		return LayerTypeLLC
	}
	switch e.EtherType {
	case EtherTypeIPv4:
		return LayerTypeIPv4
	case EtherTypeARP:
		return LayerTypeARP
	case EtherTypeIPv6:
		return LayerTypeIPv6
	case EtherTypeEAPOL:
		return LayerTypeEAPOL
	}
	return LayerTypeUnknown
}

// ARP is an Ethernet/IPv4 ARP packet (RFC 826).
type ARP struct {
	Op       uint16 // 1 request, 2 reply
	SenderHW netx.MAC
	SenderIP [4]byte
	TargetHW netx.MAC
	TargetIP [4]byte
}

// ARP operations.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// DecodeFromBytes parses the layer from data.
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < 28 {
		return ErrShort
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 || binary.BigEndian.Uint16(data[2:4]) != EtherTypeIPv4 {
		return ErrBadVersion
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderHW[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetHW[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}

// SerializedLen implements Serializable.
func (a *ARP) SerializedLen() int { return 28 }

// SerializeInto implements Serializable.
func (a *ARP) SerializeInto(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], 1) // hardware type: Ethernet
	binary.BigEndian.PutUint16(b[2:4], EtherTypeIPv4)
	b[4], b[5] = 6, 4 // hlen, plen
	binary.BigEndian.PutUint16(b[6:8], a.Op)
	copy(b[8:14], a.SenderHW[:])
	copy(b[14:18], a.SenderIP[:])
	copy(b[18:24], a.TargetHW[:])
	copy(b[24:28], a.TargetIP[:])
}

// EAPOL is an 802.1X EAPOL header; the study only needs its presence and
// packet type (EAPOL-Key handshakes on Wi-Fi associations).
type EAPOL struct {
	Version    uint8
	PacketType uint8 // 3 = EAPOL-Key
	Body       []byte
}

// DecodeFromBytes parses the layer from data.
func (e *EAPOL) DecodeFromBytes(data []byte) error {
	if len(data) < 4 {
		return ErrShort
	}
	e.Version = data[0]
	e.PacketType = data[1]
	n := int(binary.BigEndian.Uint16(data[2:4]))
	if len(data) < 4+n {
		return ErrShort
	}
	e.Body = data[4 : 4+n]
	return nil
}

// SerializedLen implements Serializable.
func (e *EAPOL) SerializedLen() int { return 4 + len(e.Body) }

// SerializeInto implements Serializable.
func (e *EAPOL) SerializeInto(b []byte) {
	b[0], b[1] = e.Version, e.PacketType
	binary.BigEndian.PutUint16(b[2:4], uint16(len(e.Body)))
	copy(b[4:], e.Body)
}

// LLC is an 802.2 LLC header; devices in the study emit XID frames
// (DSAP/SSAP 0, control 0xAF/0xBF) for link-layer discovery.
type LLC struct {
	DSAP, SSAP, Control uint8
	Info                []byte
}

// IsXID reports whether the control field encodes an XID exchange.
func (l *LLC) IsXID() bool { return l.Control == 0xaf || l.Control == 0xbf }

// DecodeFromBytes parses the layer from data.
func (l *LLC) DecodeFromBytes(data []byte) error {
	if len(data) < 3 {
		return ErrShort
	}
	l.DSAP, l.SSAP, l.Control = data[0], data[1], data[2]
	l.Info = data[3:]
	return nil
}

// SerializedLen implements Serializable.
func (l *LLC) SerializedLen() int { return 3 + len(l.Info) }

// SerializeInto implements Serializable.
func (l *LLC) SerializeInto(b []byte) {
	b[0], b[1], b[2] = l.DSAP, l.SSAP, l.Control
	copy(b[3:], l.Info)
}
