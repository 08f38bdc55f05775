package layers

import (
	"encoding/binary"
	"net/netip"

	"iotlan/internal/netx"
)

// IPv4 is an IPv4 header (RFC 791) without options.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
	// Length is filled in on decode; on serialize it is computed.
	Length uint16
}

// DecodeFromBytes parses the layer from data.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrShort
	}
	if data[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return ErrShort
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return nil
}

// IPv4HeaderLen is the fixed header size we emit (no options).
const IPv4HeaderLen = 20

// Payload returns the bytes after the header, bounded by the total length.
func (ip *IPv4) Payload(data []byte) []byte {
	ihl := int(data[0]&0x0f) * 4
	end := int(ip.Length)
	if end > len(data) || end < ihl {
		end = len(data)
	}
	return data[ihl:end]
}

// SerializedLen implements Serializable.
func (ip *IPv4) SerializedLen() int { return IPv4HeaderLen }

// SerializeInto implements Serializable. The total length is len(b).
func (ip *IPv4) SerializeInto(b []byte) {
	h := b[:IPv4HeaderLen]
	h[0] = 0x45
	h[1] = ip.TOS
	binary.BigEndian.PutUint16(h[2:4], uint16(len(b)))
	binary.BigEndian.PutUint16(h[4:6], ip.ID)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	h[8] = ttl
	h[9] = ip.Protocol
	// An invalid Src encodes as 0.0.0.0 — the DHCP client's state before
	// it has an address.
	if ip.Src.IsValid() {
		src := ip.Src.As4()
		copy(h[12:16], src[:])
	}
	if ip.Dst.IsValid() {
		dst := ip.Dst.As4()
		copy(h[16:20], dst[:])
	}
	binary.BigEndian.PutUint16(h[10:12], netx.Checksum(h, 0))
}

// NextLayerType maps the protocol field to the contained layer.
func (ip *IPv4) NextLayerType() LayerType { return ipProtoLayer(ip.Protocol) }

func ipProtoLayer(p uint8) LayerType {
	switch p {
	case IPProtoICMP:
		return LayerTypeICMPv4
	case IPProtoIGMP:
		return LayerTypeIGMP
	case IPProtoTCP:
		return LayerTypeTCP
	case IPProtoUDP:
		return LayerTypeUDP
	case IPProtoICMPv6:
		return LayerTypeICMPv6
	}
	return LayerTypeUnknown
}

// IPv6 is an IPv6 fixed header (RFC 8200); extension headers are not
// modelled (the study's IPv6 traffic is NDP, mDNS and Matter over UDP).
type IPv6 struct {
	TrafficClass uint8
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
	Length       uint16
}

// DecodeFromBytes parses the layer from data.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < 40 {
		return ErrShort
	}
	if data[0]>>4 != 6 {
		return ErrBadVersion
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.Length = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	ip.Src = netip.AddrFrom16([16]byte(data[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(data[24:40]))
	return nil
}

// Payload returns the bytes after the fixed header, bounded by length.
func (ip *IPv6) Payload(data []byte) []byte {
	end := 40 + int(ip.Length)
	if end > len(data) {
		end = len(data)
	}
	return data[40:end]
}

// IPv6HeaderLen is the size of the fixed IPv6 header.
const IPv6HeaderLen = 40

// SerializedLen implements Serializable.
func (ip *IPv6) SerializedLen() int { return IPv6HeaderLen }

// SerializeInto implements Serializable. The payload length is
// len(b) - IPv6HeaderLen.
func (ip *IPv6) SerializeInto(b []byte) {
	h := b[:IPv6HeaderLen]
	h[0] = 0x60 | ip.TrafficClass>>4
	h[1] = ip.TrafficClass << 4
	binary.BigEndian.PutUint16(h[4:6], uint16(len(b)-IPv6HeaderLen))
	h[6] = ip.NextHeader
	hl := ip.HopLimit
	if hl == 0 {
		hl = 255
	}
	h[7] = hl
	src, dst := ip.Src.As16(), ip.Dst.As16()
	copy(h[8:24], src[:])
	copy(h[24:40], dst[:])
}

// NextLayerType maps the next-header field to the contained layer.
func (ip *IPv6) NextLayerType() LayerType { return ipProtoLayer(ip.NextHeader) }
