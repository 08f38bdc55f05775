// Package netx provides shared network primitives for the simulated smart
// home: hardware addresses and their OUI prefixes, IPv4/IPv6 helpers,
// private-range checks per RFC 6890, well-known multicast groups, and the
// Internet checksum used by IP, ICMP, UDP and TCP.
package netx

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// MAC is a 48-bit IEEE 802 hardware address. Using a fixed array keeps MACs
// comparable and usable as map keys throughout the capture pipeline.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in the canonical aa:bb:cc:dd:ee:ff form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Compact renders the address without separators (AABBCCDDEEFF), the form
// many IoT vendors embed in hostnames.
func (m MAC) Compact() string {
	return fmt.Sprintf("%02X%02X%02X%02X%02X%02X", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Tail returns the last n bytes rendered as uppercase hex, as used in
// hostname suffixes like "Tuya-BC1F18".
func (m MAC) Tail(n int) string {
	if n > 6 {
		n = 6
	}
	var b strings.Builder
	for _, x := range m[6-n:] {
		fmt.Fprintf(&b, "%02X", x)
	}
	return b.String()
}

// OUI returns the organizationally unique identifier (first three octets).
func (m MAC) OUI() OUI { return OUI{m[0], m[1], m[2]} }

// IsMulticast reports whether the I/G bit is set (group address).
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsBroadcast reports whether the address is the all-ones broadcast.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// OUI is the vendor prefix of a MAC address.
type OUI [3]byte

// String renders the OUI as AA:BB:CC.
func (o OUI) String() string { return fmt.Sprintf("%02x:%02x:%02x", o[0], o[1], o[2]) }

// Checksum computes the Internet checksum (RFC 1071) over data with an
// initial partial sum, as used by IPv4, ICMP, UDP and TCP.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// PseudoHeaderSum computes the partial sum of the IPv4/IPv6 pseudo-header
// used in UDP/TCP checksums.
func PseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b))
			b = b[2:]
		}
	}
	s, d := src.As16(), dst.As16()
	if src.Is4() {
		add(s[12:])
		add(d[12:])
	} else {
		add(s[:])
		add(d[:])
	}
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// IsPrivate reports whether addr falls in a range reserved for private
// networks (RFC 6890): 10/8, 172.16/12, 192.168/16, 169.254/16 link-local,
// and IPv6 ULA/link-local. The IoT Inspector pipeline only considers traffic
// whose endpoints are both private.
func IsPrivate(addr netip.Addr) bool {
	return addr.IsPrivate() || addr.IsLinkLocalUnicast() || addr.IsLoopback()
}

// Well-known multicast groups used by the discovery protocols in the study.
var (
	MDNSv4Group = netip.AddrFrom4([4]byte{224, 0, 0, 251})
	SSDPGroup   = netip.AddrFrom4([4]byte{239, 255, 255, 250})
	CoAPGroup   = netip.AddrFrom4([4]byte{224, 0, 1, 187})
	IGMPGroup   = netip.AddrFrom4([4]byte{224, 0, 0, 22})
	AllNodesV4  = netip.AddrFrom4([4]byte{224, 0, 0, 1})
	MDNSv6Group = netip.MustParseAddr("ff02::fb")
	AllNodesV6  = netip.MustParseAddr("ff02::1")
	SLAACRtrs   = netip.MustParseAddr("ff02::2")
)

// MulticastMAC maps an IPv4/IPv6 multicast group to its Ethernet group MAC.
func MulticastMAC(group netip.Addr) MAC {
	if group.Is4() {
		a := group.As4()
		return MAC{0x01, 0x00, 0x5e, a[1] & 0x7f, a[2], a[3]}
	}
	a := group.As16()
	return MAC{0x33, 0x33, a[12], a[13], a[14], a[15]}
}

// Broadcast4 is the IPv4 limited-broadcast address.
var Broadcast4 = netip.AddrFrom4([4]byte{255, 255, 255, 255})

// SubnetBroadcast returns the directed broadcast address of a /24 containing
// addr (the simulated lab uses a /24, matching Appendix C.1).
func SubnetBroadcast(addr netip.Addr) netip.Addr {
	a := addr.As4()
	a[3] = 255
	return netip.AddrFrom4(a)
}

// LinkLocalV6 derives the EUI-64 link-local IPv6 address for a MAC, as SLAAC
// does (RFC 4862).
func LinkLocalV6(m MAC) netip.Addr {
	var a [16]byte
	a[0], a[1] = 0xfe, 0x80
	a[8] = m[0] ^ 0x02
	a[9], a[10] = m[1], m[2]
	a[11], a[12] = 0xff, 0xfe
	a[13], a[14], a[15] = m[3], m[4], m[5]
	return netip.AddrFrom16(a)
}

// SplitAddrPort parses a "host:port" dial/listen address into its parts.
// Unlike netip.ParseAddrPort it accepts the listen-style empty host
// (":8080"), returning the zero Addr for it — callers substitute their own
// bound address. Hostnames are rejected: the simulated LAN has no resolver.
func SplitAddrPort(s string) (netip.Addr, uint16, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return netip.Addr{}, 0, fmt.Errorf("address %q: missing port", s)
	}
	p, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("address %q: bad port: %v", s, err)
	}
	host := s[:i]
	if host == "" || host == "0.0.0.0" || host == "::" || host == "[::]" {
		return netip.Addr{}, uint16(p), nil
	}
	host = strings.TrimPrefix(strings.TrimSuffix(host, "]"), "[")
	addr, err := netip.ParseAddr(host)
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("address %q: %v (hostnames are not resolvable on the simulated LAN)", s, err)
	}
	return addr.Unmap(), uint16(p), nil
}
