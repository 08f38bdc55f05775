// Alloc-count regression guard and benchmark for the host receive path.
// Race instrumentation perturbs allocation counts, so the file is excluded
// from -race runs.
//
//go:build !race

package stack

import (
	"net/netip"
	"testing"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// multicastHost joins the SSDP group with unreachables off, so a datagram
// to an unbound port on that group is decoded, dispatched and dropped.
func multicastHost(tb testing.TB) (*Host, []byte) {
	tb.Helper()
	h := newFixture().host(10)
	h.Policy.RespondUDPUnreachable = false
	h.JoinGroup(netx.SSDPGroup)
	src := netip.MustParseAddr("192.168.10.99")
	udp := &layers.UDP{SrcPort: 1900, DstPort: 1900}
	udp.SetAddrs(src, netx.SSDPGroup)
	frame, err := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 99}, Dst: netx.MulticastMAC(netx.SSDPGroup), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: netx.SSDPGroup},
		udp,
		layers.RawPayload([]byte("NOTIFY * HTTP/1.1\r\n\r\n")))
	if err != nil {
		tb.Fatal(err)
	}
	return h, frame
}

// The receive path from decode to drop is allocation-free; the decode the
// network makes once per delivery event runs inside the measured closure.
func TestHandleFrameMulticastAllocs(t *testing.T) {
	h, frame := multicastHost(t)
	var f lan.Frame
	recv := func() {
		f.DecodeInto(frame)
		h.HandleFrame(&f)
	}
	recv()
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("decode + HandleFrame(joined-group UDP, unbound port) = %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkHandleFrameMulticast(b *testing.B) {
	h, frame := multicastHost(b)
	var f lan.Frame
	f.DecodeInto(frame)
	h.HandleFrame(&f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.DecodeInto(frame)
		h.HandleFrame(&f)
	}
}
