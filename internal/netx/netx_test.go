package netx

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x9c, 0x8e, 0xcd, 0x0a, 0x33, 0x1b}
	if got := m.String(); got != "9c:8e:cd:0a:33:1b" {
		t.Fatalf("String() = %q", got)
	}
	if got := m.Compact(); got != "9C8ECD0A331B" {
		t.Fatalf("Compact() = %q", got)
	}
	if got := m.Tail(3); got != "0A331B" {
		t.Fatalf("Tail(3) = %q", got)
	}
}

func TestMulticastAndBroadcastBits(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Fatal("broadcast flags wrong")
	}
	if (MAC{0x01, 0x00, 0x5e, 0, 0, 0xfb}).IsMulticast() == false {
		t.Fatal("mdns group MAC not multicast")
	}
	if (MAC{0xfc, 0x65, 0xde, 1, 2, 3}).IsMulticast() {
		t.Fatal("unicast MAC flagged multicast")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length payloads are padded with a zero byte.
	a := Checksum([]byte{0xab}, 0)
	b := Checksum([]byte{0xab, 0x00}, 0)
	if a != b {
		t.Fatalf("odd-length padding mismatch: %#04x vs %#04x", a, b)
	}
}

func TestChecksumVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		c := Checksum(data, 0)
		// Appending the checksum makes the total sum verify to 0.
		withSum := append(append([]byte{}, data...), byte(c>>8), byte(c))
		return Checksum(withSum, 0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastMAC(t *testing.T) {
	if got := MulticastMAC(MDNSv4Group); got != (MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb}) {
		t.Fatalf("mDNS v4 group MAC = %v", got)
	}
	if got := MulticastMAC(MDNSv6Group); got != (MAC{0x33, 0x33, 0, 0, 0, 0xfb}) {
		t.Fatalf("mDNS v6 group MAC = %v", got)
	}
	if got := MulticastMAC(SSDPGroup); got != (MAC{0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa}) {
		t.Fatalf("SSDP group MAC = %v", got)
	}
}

func TestSubnetBroadcast(t *testing.T) {
	got := SubnetBroadcast(netip.MustParseAddr("192.168.10.42"))
	if got != netip.MustParseAddr("192.168.10.255") {
		t.Fatalf("SubnetBroadcast = %v", got)
	}
}

func TestLinkLocalV6(t *testing.T) {
	m := MAC{0x00, 0x17, 0x88, 0x68, 0x5f, 0x61}
	got := LinkLocalV6(m)
	want := netip.MustParseAddr("fe80::217:88ff:fe68:5f61")
	if got != want {
		t.Fatalf("LinkLocalV6 = %v, want %v", got, want)
	}
	if !got.IsLinkLocalUnicast() {
		t.Fatal("derived address not link-local")
	}
}

func TestPseudoHeaderSumSymmetry(t *testing.T) {
	src := netip.MustParseAddr("192.168.10.1")
	dst := netip.MustParseAddr("192.168.10.2")
	a := PseudoHeaderSum(src, dst, 17, 100)
	b := PseudoHeaderSum(dst, src, 17, 100)
	if a != b {
		t.Fatalf("pseudo-header sum not symmetric: %d vs %d", a, b)
	}
}
