// Alloc-count regression guard and benchmarks for the responder's receive
// path. Race instrumentation perturbs allocation counts, so the file is
// excluded from -race runs.
//
//go:build !race

package mdns

import (
	"fmt"
	"testing"
	"time"

	"iotlan/internal/layers"
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

// A responder handed a response must drop it on the header, before any
// decode of the DNS message: zero allocations through the host's whole
// receive path, including the frame decode the network makes once per
// delivery event.
func TestResponderResponseAllocs(t *testing.T) {
	e := newEnv()
	h := e.host(23)
	hueResponder(h)
	frame := announcement(t)
	var p layers.Packet
	recv := func() {
		p.DecodeInto(frame)
		h.HandleFrame(&p)
	}
	recv()
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("decode + HandleFrame(mDNS response) = %.2f allocs/op, want 0", avg)
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
			var p layers.Packet
			p.DecodeInto(frame)
			h.HandleFrame(&p)
			e.sched.RunFor(time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.DecodeInto(frame)
				h.HandleFrame(&p)
				e.sched.RunFor(time.Millisecond) // flush the answer, if any
			}
		})
	}
}

// BenchmarkResponderFanout is one mDNS query as the lab carries it: each op
// multicasts the query through lan.Network.Send to 95 hosts that each run a
// responder for their own service type, then runs the clock until the one
// matching responder's answer has reached every station.
func BenchmarkResponderFanout(b *testing.B) {
	e := newEnv()
	hueResponder(e.host(10))
	for i := 1; i < 95; i++ {
		(&Responder{
			Host:     e.host(byte(10 + i)),
			Hostname: fmt.Sprintf("device-%d.local", i),
			Services: []Service{{Instance: fmt.Sprintf("Device %d", i), Type: fmt.Sprintf("_svc%d._tcp.local", i), Port: 80}},
		}).Start()
	}
	query := hueQuery(b)
	e.sched.RunFor(time.Second) // the responders' group joins
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.net.Send(query)
		e.sched.RunFor(time.Millisecond)
	}
}
