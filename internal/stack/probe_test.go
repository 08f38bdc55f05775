package stack

import (
	"testing"
	"time"

	"iotlan/internal/layers"
)

func TestSynProbeOpenPort(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	b.ListenTCP(80, func(*TCPConn) { t.Error("SYN probe must not complete the handshake") })
	var open *bool
	a.SynProbe(b.IPv4(), 80, func(o bool) { open = &o })
	f.sched.RunFor(5 * time.Second)
	if open == nil || !*open {
		t.Fatal("open port not reported")
	}
	// The probe must end with our RST (half-open scan), and the victim's
	// half-open connection must be torn down.
	sawRst := false
	for _, rec := range f.cap.All {
		p := rec.Decode()
		if p.HasTCP && p.TCP.FlagSet(layers.TCPRst) && p.Eth.Src == a.MAC() {
			sawRst = true
		}
	}
	if !sawRst {
		t.Fatal("no RST from the prober")
	}
	if len(b.tcpConns) != 0 {
		t.Fatalf("victim retains %d half-open conns", len(b.tcpConns))
	}
}

func TestSynProbeClosedPort(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	var open *bool
	a.SynProbe(b.IPv4(), 81, func(o bool) { open = &o })
	f.sched.RunFor(5 * time.Second)
	if open == nil || *open {
		t.Fatal("closed port not reported as closed")
	}
}

func TestSynProbeFilteredHostTimesOut(t *testing.T) {
	f := newFixture()
	a := f.host(10)
	pol := DefaultPolicy
	pol.RespondTCPRst = false
	b := NewHost(f.net, [6]byte{2, 0, 0, 0, 0, 90}, pol)
	b.SetIPv4(f.host(91).IPv4()) // reuse helper for address shape
	called := false
	a.SynProbe(b.IPv4(), 81, func(bool) { called = true })
	f.sched.RunFor(10 * time.Second)
	if called {
		t.Fatal("filtered host produced a verdict")
	}
	// The probe conn must be reaped to keep full sweeps bounded.
	if len(a.tcpConns) != 0 {
		t.Fatalf("prober retains %d conns after timeout", len(a.tcpConns))
	}
}

func TestSynProbeManyPortsNoLeak(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	b.ListenTCP(80, func(*TCPConn) {})
	open := 0
	for port := uint16(70); port < 120; port++ {
		a.SynProbe(b.IPv4(), port, func(o bool) {
			if o {
				open++
			}
		})
	}
	f.sched.RunFor(10 * time.Second)
	if open != 1 {
		t.Fatalf("found %d open ports, want 1", open)
	}
	if len(a.tcpConns) != 0 {
		t.Fatalf("%d probe conns leaked", len(a.tcpConns))
	}
}
