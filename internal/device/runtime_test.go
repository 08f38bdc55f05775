package device

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/coap"
	"iotlan/internal/dhcp"
	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// miniLab wires a router+DHCP+capture without importing testbed (which
// would create an import cycle in this package's tests).
type miniLab struct {
	sched *sim.Scheduler
	net   *lan.Network
	cap   *pcap.Capture
}

func newMiniLab() *miniLab {
	s := sim.NewScheduler(1)
	n := lan.New(s)
	c := pcap.NewCapture()
	n.Tap(c.Add)
	router := stack.NewHost(n, netx.MAC{0x02, 0x42, 0, 0, 0, 1}, stack.DefaultPolicy)
	router.SetIPv4(netip.MustParseAddr("192.168.10.1"))
	dhcp.NewServer(router)
	return &miniLab{sched: s, net: n, cap: c}
}

func (m *miniLab) boot(p *Profile, last byte) *Device {
	mac := netx.MAC{p.OUI[0], p.OUI[1], p.OUI[2], 0, 0, last}
	policy := stack.DefaultPolicy
	policy.EnableIPv6 = p.IPv6
	d := New(p, stack.NewHost(m.net, mac, policy))
	d.Start()
	return d
}

func TestRuntimeEAPOLAndXID(t *testing.T) {
	m := newMiniLab()
	m.boot(nintendoSwitch(), 9)
	m.sched.RunFor(10 * time.Minute)
	var eapol, xid bool
	for _, rec := range m.cap.All {
		p := rec.Decode()
		if p.HasEAPOL {
			eapol = true
		}
		if p.HasLLC && p.LLC.IsXID() {
			xid = true
		}
	}
	if !eapol {
		t.Error("no EAPOL frames from the Switch")
	}
	if !xid {
		t.Error("no XID/LLC frames from the Switch")
	}
}

func TestRuntimeLifxQuirk(t *testing.T) {
	m := newMiniLab()
	m.boot(echoSpeaker(1, "Echo Spot"), 9)
	m.sched.RunFor(15 * time.Minute)
	found := false
	for _, rec := range m.cap.All {
		p := rec.Decode()
		if p.HasUDP && p.UDP.DstPort == 56700 && p.Eth.Dst.IsBroadcast() {
			found = true
		}
	}
	if !found {
		t.Fatal("Echo did not emit the Lifx 56700 broadcast (§5.1 quirk)")
	}
}

func TestRuntimeCoAPExchange(t *testing.T) {
	m := newMiniLab()
	fridge := m.boot(samsungFridge(), 9)
	pod := m.boot(homePod(1, "HomePod Mini", true), 10)
	_ = pod
	m.sched.RunFor(15 * time.Minute)
	var request, response bool
	for _, rec := range m.cap.All {
		p := rec.Decode()
		if !p.HasUDP || (p.UDP.DstPort != coap.Port && p.UDP.SrcPort != coap.Port) {
			continue
		}
		msg, err := coap.Unmarshal(p.AppPayload)
		if err != nil {
			continue
		}
		if msg.Code == coap.CodeGET && msg.Path() == "/oic/res" {
			request = true
		}
		if msg.Code == coap.CodeContent {
			response = true
		}
	}
	if !request {
		t.Error("no CoAP /oic/res requests (IoTivity, §5.1)")
	}
	if !response {
		t.Error("no CoAP content responses")
	}
	_ = fridge
}

func TestRuntimeDNSServerAnswers(t *testing.T) {
	m := newMiniLab()
	pod := m.boot(homePod(1, "HomePod Mini", true), 9)
	m.sched.RunFor(time.Minute)
	if !pod.Host.UDPPortOpen(53) {
		t.Fatal("HomePod Mini DNS server not listening")
	}
}

func TestRuntimeTelnetBanner(t *testing.T) {
	m := newMiniLab()
	cam := m.boot(cheapCam("test-cam", "ICSee", "X5", netx.OUI{0x9c, 0xa5, 0x25}, 23), 9)
	m.sched.RunFor(time.Minute)
	client := stack.NewHost(m.net, netx.MAC{0x02, 0xcc, 0, 0, 0, 1}, stack.DefaultPolicy)
	client.SetIPv4(netip.MustParseAddr("192.168.10.200"))
	var banner []byte
	conn := client.DialTCP(cam.IP(), 23)
	conn.OnData = func(c *stack.TCPConn, data []byte) { banner = append(banner, data...) }
	m.sched.RunFor(5 * time.Second)
	if len(banner) == 0 || banner[0] != 0xff {
		t.Fatalf("telnet greeting: %q", banner)
	}
}

func TestRuntimeARPSweepAndPublicProbes(t *testing.T) {
	m := newMiniLab()
	echo := m.boot(echoSpeaker(1, "Echo Spot"), 9)
	_ = echo
	m.sched.RunFor(5 * time.Minute) // first sweep fires at ~1 min
	targets := map[[4]byte]bool{}
	for _, rec := range m.cap.All {
		p := rec.Decode()
		if p.HasARP && p.ARP.Op == layers.ARPRequest {
			targets[p.ARP.TargetIP] = true
		}
	}
	if len(targets) < 250 {
		t.Fatalf("Echo sweep probed %d addresses, want ~254", len(targets))
	}

	// A public-IP prober (§5.1: six devices).
	m2 := newMiniLab()
	m2.boot(wemoPlug(), 9)
	m2.sched.RunFor(5 * time.Minute)
	public := false
	for _, rec := range m2.cap.All {
		p := rec.Decode()
		if p.HasARP && p.ARP.TargetIP == [4]byte{8, 8, 8, 8} {
			public = true
		}
	}
	if !public {
		t.Fatal("WeMo did not ARP-probe a public IP")
	}
}

func TestRuntimeICMPv6Probes(t *testing.T) {
	m := newMiniLab()
	hub := m.boot(googleSpeaker(3, "Nest Hub"), 9)
	if hub.Profile.ICMPv6ProbeCount != 2597 {
		t.Fatalf("Nest Hub probe count %d", hub.Profile.ICMPv6ProbeCount)
	}
	m.sched.RunFor(20 * time.Minute)
	probes := 0
	for _, rec := range m.cap.All {
		p := rec.Decode()
		if p.HasICMP6 && p.ICMP6.Type == layers.ICMPv6NeighborSolicit {
			probes++
		}
	}
	if probes < 100 {
		t.Fatalf("Nest Hub sent %d multicast NS probes", probes)
	}
}

func TestRuntimeRTPSyncAndPeerTLS(t *testing.T) {
	m := newMiniLab()
	a := m.boot(echoSpeaker(1, "Echo Spot"), 9)
	b := m.boot(echoSpeaker(2, "Echo Show 5"), 10)
	a.Peers = []*Device{b}
	b.Peers = []*Device{a}
	m.sched.RunFor(2 * time.Minute)

	a.RTPSync(b, 5)
	a.DialPeerTLS(b)
	m.sched.RunFor(10 * time.Second)

	var rtpPkts, tlsPkts int
	for _, rec := range m.cap.All {
		p := rec.Decode()
		if p.HasUDP && p.UDP.DstPort == 55444 {
			rtpPkts++
		}
		if p.HasTCP && len(p.AppPayload) > 2 && p.AppPayload[0] == 22 && p.AppPayload[1] == 3 {
			tlsPkts++
		}
	}
	if rtpPkts < 5 {
		t.Errorf("RTP packets: %d", rtpPkts)
	}
	if tlsPkts < 2 {
		t.Errorf("TLS handshake packets: %d", tlsPkts)
	}
}

func TestRuntimeMatterInstanceIsMAC(t *testing.T) {
	m := newMiniLab()
	echo := m.boot(echoSpeaker(1, "Echo Spot"), 9)
	m.sched.RunFor(10 * time.Minute)
	found := false
	compact := echo.MAC().Compact()
	for _, r := range m.cap.All {
		p := r.Decode()
		if p.HasUDP && p.UDP.DstPort == 5353 {
			if containsStr(p.AppPayload, compact) && containsStr(p.AppPayload, "_matterc") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Matter commissionable advertisement does not embed the MAC")
	}
}

func containsStr(b []byte, s string) bool {
	for i := 0; i+len(s) <= len(b); i++ {
		if string(b[i:i+len(s)]) == s {
			return true
		}
	}
	return false
}

func TestRuntimeDoubleStartIsIdempotent(t *testing.T) {
	m := newMiniLab()
	d := m.boot(hueHub(), 9)
	before := m.sched.Pending()
	d.Start() // second call must be a no-op
	if m.sched.Pending() != before {
		t.Fatal("second Start scheduled more work")
	}
}
