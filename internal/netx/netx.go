// Package netx provides shared network primitives for the simulated smart
// home: hardware addresses with OUI vendor mapping, IPv4/IPv6 helpers,
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

// ouiVendors maps the OUI prefixes used by the simulated device catalog to
// vendor names, mirroring the IEEE registry entries the paper's pipeline
// relies on for device identification.
var ouiVendors = map[OUI]string{
	{0xfc, 0x65, 0xde}: "Amazon",
	{0x44, 0x00, 0x49}: "Amazon",
	{0x1c, 0x53, 0xf9}: "Google",
	{0x54, 0x60, 0x09}: "Google",
	{0xf0, 0x18, 0x98}: "Apple",
	{0xac, 0xbc, 0x32}: "Apple",
	{0x00, 0x17, 0x88}: "Philips",
	{0x50, 0xc7, 0xbf}: "TP-Link",
	{0x68, 0xff, 0x7b}: "TP-Link",
	{0x10, 0xd5, 0x61}: "Tuya",
	{0x68, 0x57, 0x2d}: "Tuya",
	{0x28, 0x6d, 0x97}: "Samsung",
	{0x8c, 0x79, 0xf5}: "Samsung",
	{0xcc, 0x50, 0xe3}: "Espressif",
	{0xb0, 0xbe, 0x76}: "Belkin",
	{0x94, 0x10, 0x3e}: "Belkin",
	{0x00, 0x0d, 0x4b}: "Roku",
	{0xd8, 0x31, 0x34}: "Ring",
	{0x64, 0x16, 0x66}: "Nest",
	{0x88, 0x71, 0xe5}: "Amazon",
	{0xa4, 0x77, 0x33}: "Google",
	{0x20, 0xdf, 0xb9}: "Google",
	{0x00, 0x04, 0x4b}: "Nvidia",
	{0x7c, 0x49, 0xeb}: "Xiaomi",
	{0x78, 0x11, 0xdc}: "Xiaomi",
	{0xc0, 0x97, 0x27}: "Sonoff",
	{0x24, 0xfd, 0x5b}: "SmartThings",
	{0xd0, 0x52, 0xa8}: "SmartThings",
	{0x00, 0x71, 0x47}: "Amazon",
	{0xb8, 0x5f, 0x98}: "Amazon",
	{0x18, 0xb4, 0x30}: "Nest",
	{0x38, 0x8b, 0x59}: "Google",
	{0x00, 0x24, 0xe4}: "Withings",
	{0x00, 0x03, 0x7f}: "Atheros",
	{0xb0, 0x09, 0xda}: "Ring",
	{0x74, 0xc2, 0x46}: "Amazon",
	{0x84, 0xd6, 0xd0}: "Amazon",
	{0x08, 0x12, 0xa5}: "Amcrest",
	{0x9c, 0x8e, 0xcd}: "Amcrest",
	{0x2c, 0xaa, 0x8e}: "Wyze",
	{0x60, 0x01, 0x94}: "Espressif",
	{0xec, 0x71, 0xdb}: "Reolink",
	{0x00, 0x12, 0xfb}: "LG",
	{0x88, 0x36, 0x6c}: "LG",
	{0xcc, 0xa7, 0xc1}: "Google",
	{0x30, 0xfd, 0x38}: "Google",
	{0x40, 0xb4, 0xcd}: "Amazon",
	{0x6c, 0x56, 0x97}: "Amazon",
	{0x00, 0xfc, 0x8b}: "Amazon",
	{0xac, 0x63, 0xbe}: "Amazon",
	{0x08, 0x84, 0x9d}: "Amazon",
	{0xa0, 0xd0, 0xdc}: "Amazon",
	{0x34, 0xd2, 0x70}: "Amazon",
	{0x48, 0xd6, 0xd5}: "Google",
	{0xf4, 0xf5, 0xd8}: "Google",
	{0x1a, 0x11, 0x30}: "IKEA",
	{0x00, 0x0b, 0x57}: "Silicon Labs",
	{0x5c, 0x41, 0x5a}: "Amazon",
	{0x10, 0x2c, 0x6b}: "AMPAK",
	{0x70, 0xee, 0x50}: "Netatmo",
	{0xd4, 0x81, 0xd7}: "Arlo",
	{0x3c, 0x37, 0x86}: "Netgear",
	{0xb4, 0x79, 0xa7}: "Marvell",
	{0x00, 0x1d, 0xc9}: "GainSpan",
	{0xdc, 0xa6, 0x32}: "Raspberry Pi",
	{0x00, 0x16, 0x6c}: "Samsung",
	{0x70, 0x2c, 0x1f}: "Wisol",
	{0x14, 0x91, 0x82}: "Belkin",
	{0xc0, 0x56, 0x27}: "Belkin",
	{0x58, 0xef, 0x68}: "Belkin",
	{0x64, 0x52, 0x99}: "Chamberlain",
	{0x00, 0x02, 0x75}: "D-Link",
	{0xb0, 0xc5, 0x54}: "D-Link",
	{0xec, 0xfa, 0xbc}: "Espressif",
	{0x84, 0x0d, 0x8e}: "Espressif",
	{0x5c, 0xcf, 0x7f}: "Espressif",
	{0x00, 0x1f, 0x32}: "Nintendo",
	{0x98, 0xb6, 0xe9}: "Nintendo",
	{0xc8, 0xdb, 0x26}: "Logitech",
	{0x00, 0x04, 0x20}: "Slim Devices",
	{0x74, 0x75, 0x48}: "Amazon",
	{0xcc, 0x9e, 0xa2}: "Amazon",
	{0x38, 0xf7, 0x3d}: "Amazon",
	{0x44, 0x65, 0x0d}: "Amazon",
	{0x50, 0xdc, 0xe7}: "Amazon",
	{0x68, 0x37, 0xe9}: "Amazon",
	{0x78, 0xe1, 0x03}: "Amazon",
	{0xf0, 0x27, 0x2d}: "Amazon",
	{0x88, 0xc6, 0x26}: "Logitech",
	{0x60, 0xf1, 0x89}: "Meta",
	{0x48, 0x5f, 0x99}: "Cloud Network Technology",
	{0x90, 0x48, 0x6c}: "Ring",
	{0x54, 0xe0, 0x19}: "Ring",
	{0x34, 0x3e, 0xa4}: "Ring",
	{0x0c, 0x47, 0xc9}: "Amazon",
	{0x18, 0x74, 0x2e}: "Amazon",
	{0x24, 0x4c, 0xe3}: "Amazon",
	{0xac, 0x41, 0x6a}: "Amazon",
}

// VendorForOUI returns the vendor registered for an OUI, or "" when unknown.
func VendorForOUI(o OUI) string { return ouiVendors[o] }

// RegisterOUI adds an OUI→vendor mapping (used by the device catalog for
// vendor prefixes not in the builtin table).
func RegisterOUI(o OUI, vendor string) { ouiVendors[o] = vendor }

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
