// Alloc-count regression guard and benchmarks for the responder's receive
// path. Race instrumentation perturbs allocation counts, so the file is
// excluded from -race runs.
//
//go:build !race

package mdns

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// announcement is another station's unsolicited response — the bulk of what
// a responder receives — as that station's Announce puts it on the wire.
func announcement(tb testing.TB) []byte {
	tb.Helper()
	e := newEnv()
	r := hueResponder(e.host(9))
	var frame []byte
	e.net.Tap(func(_ time.Time, f []byte) {
		if frame == nil { // the IPv4 copy
			frame = f
		}
	})
	r.Announce()
	if frame == nil {
		tb.Fatal("Announce sent nothing")
	}
	return frame
}

// hueQuery is a multicast PTR query for the Hue service from 192.168.10.9.
func hueQuery(tb testing.TB) []byte {
	tb.Helper()
	q := &dnsmsg.Message{Questions: []dnsmsg.Question{
		{Name: "_hue._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
	}}
	src := netip.MustParseAddr("192.168.10.9")
	udp := &layers.UDP{SrcPort: Port, DstPort: Port}
	udp.SetAddrs(src, netx.MDNSv4Group)
	frame, err := layers.Serialize(
		&layers.Ethernet{Src: netx.MAC{2, 0, 0, 0, 0, 9}, Dst: netx.MulticastMAC(netx.MDNSv4Group), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: netx.MDNSv4Group},
		udp,
		layers.RawPayload(q.Marshal()))
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// A responder handed a response must drop it on the header, before any
// decode: zero allocations through the host's whole receive path.
func TestResponderResponseAllocs(t *testing.T) {
	e := newEnv()
	h := e.host(23)
	hueResponder(h)
	frame := announcement(t)
	h.HandleFrame(frame)
	if avg := testing.AllocsPerRun(200, func() { h.HandleFrame(frame) }); avg != 0 {
		t.Fatalf("HandleFrame(mDNS response) = %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkResponderDatagram(b *testing.B) {
	for _, c := range []struct {
		name  string
		frame func(testing.TB) []byte
	}{
		{"Response", announcement},
		{"Query", hueQuery},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := newEnv()
			h := e.host(23)
			hueResponder(h)
			frame := c.frame(b)
			h.HandleFrame(frame)
			e.sched.RunFor(time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.HandleFrame(frame)
				e.sched.RunFor(time.Millisecond) // flush the answer, if any
			}
		})
	}
}
