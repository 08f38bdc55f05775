// Alloc-count regression guard for the responder's receive path. Race
// instrumentation perturbs allocation counts, so the file is excluded from
// -race runs.
//
//go:build !race

package ssdp

import (
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/sim"
)

// A responder handed another station's NOTIFY must drop it on the start
// line, before Parse: zero allocations through the host's receive path,
// including the decode the network makes once per delivery event.
func TestResponderNotifyAllocs(t *testing.T) {
	network := lan.New(sim.NewScheduler(1))
	tv := newHost(network, 30)
	(&Responder{Host: tv, Ads: []Advertisement{{UUID: "tv", Target: TargetDial}}}).Start()
	hue := &Responder{Host: newHost(network, 23), Ads: []Advertisement{{
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
	var p layers.Packet
	recv := func() {
		p.DecodeInto(notify)
		tv.HandleFrame(&p)
	}
	recv()
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("decode + HandleFrame(NOTIFY) = %.2f allocs/op, want 0", avg)
	}
}

// A passive responder handed an M-SEARCH it has parsed before takes the
// search target from its memo: zero allocations through the host's receive
// path, including the decode the network makes once per delivery event.
func TestResponderSearchAllocs(t *testing.T) {
	network := lan.New(sim.NewScheduler(1))
	tv := newHost(network, 30)
	(&Responder{Host: tv, Passive: true, Ads: []Advertisement{{UUID: "tv", Target: TargetDial}}}).Start()
	search := searchFrame(TargetAll)
	var p layers.Packet
	recv := func() {
		p.DecodeInto(search)
		tv.HandleFrame(&p)
	}
	recv() // the first sight of the payload parses it
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("decode + HandleFrame(repeated M-SEARCH, passive) = %.2f allocs/op, want 0", avg)
	}
}
