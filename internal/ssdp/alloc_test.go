// Alloc-count regression guard for the responder's receive path. Race
// instrumentation perturbs allocation counts, so the file is excluded from
// -race runs.
//
//go:build !race

package ssdp

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// A responder handed another station's NOTIFY must drop it on the start
// line, before Parse: zero allocations through the host's receive path,
// including the decode the network makes once per delivery event.
func TestResponderNotifyAllocs(t *testing.T) {
	network := lan.New(sim.NewScheduler(1))
	mk := func(last byte) *stack.Host {
		h := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
	tv := mk(30)
	(&Responder{Host: tv, Ads: []Advertisement{{UUID: "tv", Target: TargetDial}}}).Start()
	hue := &Responder{Host: mk(23), Ads: []Advertisement{{
		UUID:     "2f402f80-da50-11e1-9b23-001788685f61",
		Target:   TargetBasic,
		Location: "http://192.168.10.23:80/description.xml",
		Server:   "Linux/3.14 UPnP/1.0 IpBridge/1.56.0",
	}}}
	hue.Start()
	var notify []byte
	network.Tap(func(_ time.Time, f []byte) { notify = f })
	hue.NotifyAll()
	if kindOf(notify[42:]) != "NOTIFY" { // 14 Ethernet + 20 IPv4 + 8 UDP
		t.Fatalf("captured frame is not a NOTIFY: %q", notify)
	}
	var f lan.Frame
	recv := func() {
		f.DecodeInto(notify)
		tv.HandleFrame(&f)
	}
	recv()
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("decode + HandleFrame(NOTIFY) = %.2f allocs/op, want 0", avg)
	}
}
