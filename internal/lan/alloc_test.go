// Alloc-count regression guards and benchmarks for the frame send path.
// These run as plain tests so CI catches a reintroduced per-delivery
// allocation; race instrumentation perturbs allocation counts, so the file
// is excluded from -race runs.
//
//go:build !race

package lan

import (
	"testing"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
)

// sinkNode discards frames, so receive-side bookkeeping cannot hide (or
// fake) send-path allocations the way stubNode's append would.
type sinkNode struct{ mac netx.MAC }

func (n *sinkNode) MAC() netx.MAC                { return n.mac }
func (n *sinkNode) HandleFrame(_ *layers.Packet) {}

func mkFrame(tb testing.TB, src, dst netx.MAC) []byte {
	tb.Helper()
	return layers.Serialize(
		&layers.Ethernet{Src: src, Dst: dst, EtherType: layers.EtherTypeIPv4},
		layers.RawPayload(make([]byte, 30)))
}

// sinkNet builds a network of count discarding stations and returns the
// station MACs in attach order.
func sinkNet(tb testing.TB, count int) (*sim.Scheduler, *Network, []netx.MAC) {
	tb.Helper()
	s := sim.NewScheduler(1)
	n := New(s)
	macs := make([]netx.MAC, count)
	for i := range macs {
		macs[i] = netx.MAC{2, 0, 0, 0, 1, byte(i + 1)}
		n.Attach(&sinkNode{mac: macs[i]})
	}
	return s, n, macs
}

// The steady-state send path — unicast and multicast — must not allocate:
// delivery events and scheduler events all come from pools.
func TestSendAllocs(t *testing.T) {
	s, n, macs := sinkNet(t, 8)
	uni := mkFrame(t, macs[0], macs[1])
	multi := mkFrame(t, macs[0], netx.Broadcast)
	// Warm the pools and the frame-type counter cache.
	n.Send(uni)
	n.Send(multi)
	s.RunFor(time.Second)

	if avg := testing.AllocsPerRun(200, func() {
		n.Send(uni)
		s.RunFor(time.Millisecond)
	}); avg != 0 {
		t.Fatalf("unicast Send+deliver = %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		n.Send(multi)
		s.RunFor(time.Millisecond)
	}); avg != 0 {
		t.Fatalf("multicast Send+deliver = %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkLanSend(b *testing.B) {
	b.Run("Unicast", func(b *testing.B) {
		s, n, macs := sinkNet(b, 8)
		f := mkFrame(b, macs[0], macs[1])
		n.Send(f)
		s.RunFor(time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(f)
			s.RunFor(time.Millisecond)
		}
	})
	b.Run("Multicast8", func(b *testing.B) {
		s, n, macs := sinkNet(b, 8)
		f := mkFrame(b, macs[0], netx.Broadcast)
		n.Send(f)
		s.RunFor(time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(f)
			s.RunFor(time.Millisecond)
		}
	})
}
