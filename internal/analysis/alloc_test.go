// Alloc-count regression guards. The capture readers each decode every
// record into one packet they own, so a pass over a capture allocates the
// same at any record count. HouseholdPartialOf, which the serving layer's
// fold runs once per changed record, stays at its measured count. Race
// instrumentation changes allocation counts, so the file is excluded from
// -race runs.
//
//go:build !race

package analysis

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
)

// udpFrame builds one IPv4 UDP frame.
func udpFrame(src, dst netx.MAC, srcIP, dstIP string, sport, dport uint16, payload string) []byte {
	s, d := netip.MustParseAddr(srcIP), netip.MustParseAddr(dstIP)
	udp := &layers.UDP{SrcPort: sport, DstPort: dport}
	udp.SetAddrs(s, d)
	return layers.Serialize(
		&layers.Ethernet{Src: src, Dst: dst, EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: s, Dst: d},
		udp, layers.RawPayload(payload))
}

// readerCapture returns a capture whose head fills Table 1 cells (an ARP
// request and an SSDP NOTIFY) followed by n frames every reader decodes
// but none adds a cell for: ARP requests, local unicast UDP on an
// unmonitored port, and unicast to a cloud address, which the local filter
// drops.
func readerCapture(n int) []pcap.Record {
	a, b := netx.MAC{2, 0, 0, 0, 0, 1}, netx.MAC{2, 0, 0, 0, 0, 2}
	at := time.Unix(1668384000, 0).UTC()
	recs := []pcap.Record{
		{Time: at, Data: layers.Serialize(
			&layers.Ethernet{Src: a, Dst: netx.Broadcast, EtherType: layers.EtherTypeARP},
			&layers.ARP{Op: layers.ARPRequest, SenderHW: a})},
		{Time: at, Data: udpFrame(a, netx.MAC{0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa}, "192.168.10.1", "239.255.255.250", 1900, 1900,
			"NOTIFY * HTTP/1.1\r\nSERVER: Linux/3.14 UPnP/1.0 test/1.0\r\nUSN: uuid:2f402f80-da50-11e1-9b23-00178804a1b2\r\n\r\n")},
	}
	fill := [][]byte{
		recs[0].Data,
		udpFrame(a, b, "192.168.10.1", "192.168.10.2", 40000, 40001, "a local payload longer than any stack buffer for strings"),
		udpFrame(a, b, "192.168.10.1", "52.94.0.1", 40000, 443, "a cloud-bound payload"),
	}
	for i := 0; i < n; i++ {
		recs = append(recs, pcap.Record{Time: at.Add(time.Duration(i) * time.Millisecond), Data: fill[i%len(fill)]})
	}
	return recs
}

var localSink int

func TestCaptureReadersAllocs(t *testing.T) {
	small, large := readerCapture(100), readerCapture(1000)
	if m := BuildExposure(large); !m.Exposed("ARP", ExpMAC) || !m.Exposed("SSDP", ExpUUID) {
		t.Fatal("the capture's head fills no Table 1 cell")
	}
	for _, r := range []struct {
		name string
		read func([]pcap.Record)
		none bool // allocates nothing at all
	}{
		{"pcap.CountLocal", func(recs []pcap.Record) { localSink = pcap.CountLocal(recs) }, true},
		{"BuildExposure", func(recs []pcap.Record) { BuildExposure(recs) }, false},
	} {
		a := testing.AllocsPerRun(20, func() { r.read(small) })
		b := testing.AllocsPerRun(20, func() { r.read(large) })
		if a != b {
			t.Errorf("%s: %.0f allocs over %d records, %.0f over %d; a reader must not allocate per record",
				r.name, a, len(small), b, len(large))
		}
		if r.none && b != 0 {
			t.Errorf("%s: %.0f allocs, want 0", r.name, b)
		}
	}
}

// TestHouseholdPartialOfAllocs holds HouseholdPartialOf, over
// BenchmarkHouseholdPartialOf's four-device household, at its measured 240
// allocations.
func TestHouseholdPartialOfAllocs(t *testing.T) {
	h := inspector.Generate(1, 1).Households[0]
	if avg := testing.AllocsPerRun(100, func() { partialSink = HouseholdPartialOf(h) }); avg > 240 {
		t.Fatalf("HouseholdPartialOf = %.0f allocs/op, want at most 240", avg)
	}
}
