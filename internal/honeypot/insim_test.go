package honeypot_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotlan/internal/honeypot"
	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/ssdp"
	"iotlan/internal/stack"
	"iotlan/internal/vnet"
)

// TestServerInSim runs the deployment-mode honeypot Server — the code path
// meant for a real home LAN — on the simulated network by handing it a
// vnet.Net instead of the standard library, then probes all three services
// from a second simulated host. The accept loops, session handling and
// deadline logic under test are byte-for-byte the ones a real deployment
// runs.
func TestServerInSim(t *testing.T) {
	hp, _ := probeInSim(t, 5)
	got := hp.Interactions()
	for _, proto := range []string{"ssdp", "http", "telnet"} {
		if got[proto] == 0 {
			t.Errorf("no %s interactions logged: %v", proto, got)
		}
	}
	var loginLogged bool
	probeAddr := netip.AddrFrom4([4]byte{192, 168, 10, 11})
	for _, e := range hp.Events {
		if e.From != probeAddr {
			t.Errorf("event %v from %v, want %v", e.Detail, e.From, probeAddr)
		}
		if e.Proto == "telnet" && e.Detail == "login root:hunter2" {
			loginLogged = true
		}
		if e.Time.Before(sim.Epoch) || e.Time.After(sim.Epoch.Add(time.Hour)) {
			t.Errorf("event %v stamped %v, outside the simulated window (wall clock leaked in?)", e.Detail, e.Time)
		}
	}
	if !loginLogged {
		t.Errorf("telnet credentials not captured; events: %+v", hp.Events)
	}
}

// TestServerInSimDeterministic: the Server starts its SSDP read loop and
// its accept loops as granted actors (netx.Fabric.Go), so none of them
// computes while the virtual clock moves. The same probe on the same seed
// therefore logs the same events at the same virtual instants, with no
// help from the pump's real-time stall valve.
func TestServerInSimDeterministic(t *testing.T) {
	first, resets := probeInSim(t, 5)
	if resets != 0 {
		t.Fatalf("first run: vnet_grant_resets = %d: the virtual clock was driven by the real-time valve", resets)
	}
	second, resets := probeInSim(t, 5)
	if resets != 0 {
		t.Fatalf("second run: vnet_grant_resets = %d: the virtual clock was driven by the real-time valve", resets)
	}
	if len(first.Events) == 0 || !reflect.DeepEqual(first.Events, second.Events) {
		t.Fatalf("same seed, different honeypot logs:\n%+v\n%+v", first.Events, second.Events)
	}
}

// probeInSim starts a honeypot Server on one simulated host, probes its
// SSDP, HTTP and telnet services from another for a virtual minute, and
// returns the honeypot and the run's vnet_grant_resets count.
func probeInSim(t *testing.T, seed int64) (*honeypot.Honeypot, uint64) {
	t.Helper()
	sched := sim.NewScheduler(seed)
	ln := lan.New(sched)
	mk := func(last byte) *stack.Host {
		h := stack.NewHost(ln, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
	pump := vnet.NewPump(sched)
	hpNet := vnet.New(pump, mk(10))
	prober := vnet.New(pump, mk(11))

	hp := honeypot.New("fake-hue", seed)
	srv := &honeypot.Server{
		HP:         hp,
		Net:        hpNet,
		SSDPAddr:   ":1900",
		HTTPAddr:   ":8080",
		TelnetAddr: ":2323",
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()

	done := pump.Go(func() {
		// SSDP: an M-SEARCH must come back with the honeytoken UUID.
		pc, err := prober.ListenPacket("udp4", ":0")
		if err != nil {
			t.Errorf("prober listen: %v", err)
			return
		}
		defer pc.Close()
		dst := &vnetUDPAddr{addr: "192.168.10.10:1900"}
		if _, err := pc.WriteTo(ssdp.MSearch(ssdp.TargetBasic, 1), dst); err != nil {
			t.Errorf("ssdp write: %v", err)
			return
		}
		pc.SetReadDeadline(prober.Now().Add(2 * time.Second))
		buf := make([]byte, 2048)
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			t.Errorf("ssdp read: %v", err)
			return
		}
		if !hp.TokenAppearsIn(buf[:n]) {
			t.Errorf("ssdp response lacks honeytoken: %q", buf[:n])
		}

		// HTTP: the description document carries the token. The response
		// is read to its Content-Length and the conn closed only when the
		// probe ends: a read that ends in EOF, and a Close, grant no
		// compute, so a probe that went on after either would race the
		// virtual clock until its next operation.
		c, err := prober.DialContext(context.Background(), "tcp", "192.168.10.10:8080")
		if err != nil {
			t.Errorf("http dial: %v", err)
			return
		}
		defer c.Close()
		fmt.Fprintf(c, "GET /description.xml HTTP/1.1\r\nHost: honeypot\r\n\r\n")
		c.SetReadDeadline(prober.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Errorf("http response: %v", err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || !hp.TokenAppearsIn(body) {
			t.Errorf("http response %d (%v) missing status or token: %q", resp.StatusCode, err, body)
		}

		// Telnet: a full login attempt must be captured.
		tc, err := prober.DialContext(context.Background(), "tcp", "192.168.10.10:2323")
		if err != nil {
			t.Errorf("telnet dial: %v", err)
			return
		}
		defer tc.Close()
		tc.SetReadDeadline(prober.Now().Add(2 * time.Second))
		greet := make([]byte, 512)
		if _, err := tc.Read(greet); err != nil {
			t.Errorf("telnet greeting: %v", err)
			return
		}
		tc.Write([]byte("root\r\n"))
		tc.SetReadDeadline(prober.Now().Add(2 * time.Second))
		if _, err := tc.Read(greet); err != nil {
			t.Errorf("telnet password prompt: %v", err)
			return
		}
		tc.Write([]byte("hunter2\r\n"))
		tc.SetReadDeadline(prober.Now().Add(2 * time.Second))
		tc.Read(greet) // login-failed reply; content covered by telnetx tests
	})

	pump.RunFor(time.Minute)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("prober did not finish")
	}
	return hp, sched.Telemetry.Registry.Total("vnet_grant_resets")
}

// vnetUDPAddr satisfies net.Addr for WriteTo against the virtual fabric.
type vnetUDPAddr struct{ addr string }

func (a *vnetUDPAddr) Network() string { return "udp" }
func (a *vnetUDPAddr) String() string  { return a.addr }
