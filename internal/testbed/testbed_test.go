package testbed

import (
	"strings"
	"testing"
	"time"
)

func TestLabBootsAllDevices(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(10 * time.Minute)
	addressed := 0
	for _, d := range lab.Devices {
		if d.IP().IsValid() {
			addressed++
		}
	}
	if addressed != len(lab.Devices) {
		t.Fatalf("%d/%d devices got DHCP leases", addressed, len(lab.Devices))
	}
	if lab.Capture.Len() == 0 {
		t.Fatal("no traffic captured")
	}
}

func TestLabDHCPLeasesRecordHostnames(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(5 * time.Minute)
	withHostname := 0
	for _, lease := range lab.DHCP.Leases {
		if lease.Hostname != "" {
			withHostname++
		}
	}
	// §5.1: hostnames identified for ~67% of devices; all our DHCP clients
	// currently send one, so expect a clear majority.
	if withHostname < len(lab.Devices)/2 {
		t.Fatalf("only %d leases carry hostnames", withHostname)
	}
}

func TestIdleTrafficContainsCoreProtocols(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(30 * time.Minute)
	seen := map[string]bool{}
	for _, rec := range lab.Capture.All {
		p := rec.Decode()
		seen[p.L3Name()] = true
		if p.HasUDP {
			switch p.UDP.DstPort {
			case 5353:
				seen["mDNS"] = true
			case 1900:
				seen["SSDP"] = true
			case 67, 68:
				seen["DHCP"] = true
			case 9999:
				seen["TPLINK"] = true
			case 6666, 6667:
				seen["TuyaLP"] = true
			}
		}
	}
	for _, want := range []string{"ARP", "DHCP", "mDNS", "SSDP", "TPLINK", "TuyaLP", "ICMPv6", "IGMP", "EAPOL"} {
		if !seen[want] {
			t.Errorf("idle capture lacks %s traffic", want)
		}
	}
}

func TestDeterministicCapture(t *testing.T) {
	run := func() int {
		lab := New(42)
		lab.Start()
		lab.RunIdle(10 * time.Minute)
		return lab.Capture.Len()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different captures: %d vs %d frames", a, b)
	}
}

func TestDeterministicMetricsSnapshot(t *testing.T) {
	run := func() []byte {
		lab := New(42)
		lab.Start()
		lab.RunIdle(10 * time.Minute)
		return lab.Telemetry().Registry.Snapshot()
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same seed produced different metrics snapshots:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty metrics snapshot")
	}
}

func TestSummaryReflectsRegistry(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(5 * time.Minute)
	reg := lab.Telemetry().Registry
	if reg.CounterValue("lan_frames_delivered") == 0 {
		t.Fatal("no frames delivered recorded")
	}
	if reg.Total("sim_events_processed") == 0 {
		t.Fatal("no events processed recorded")
	}
	s := lab.Summary()
	for _, want := range []string{"devices=", "frames=", "dropped=", "events=", "pending=", "interactions="} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q lacks %q", s, want)
		}
	}
}

func TestInteractionsGenerateUnicastTraffic(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(8 * time.Minute)
	before := lab.Capture.Len()
	lab.Interact(40)
	if lab.Interactions != 40 {
		t.Fatalf("interactions counter: %d", lab.Interactions)
	}
	// Interactions must add TCP traffic to port 9999 (TP-Link control).
	sawControl := false
	for _, r := range lab.Capture.All[before:] {
		p := r.Decode()
		if p.HasTCP && (p.TCP.DstPort == 9999 || p.TCP.SrcPort == 9999) {
			sawControl = true
			break
		}
	}
	if !sawControl {
		t.Fatal("no TPLINK-SHP control traffic from interactions")
	}
}

func TestPlatformClustersTalk(t *testing.T) {
	lab := New(1)
	lab.Start()
	lab.RunIdle(45 * time.Minute)
	// TLS cluster traffic: device-to-device TCP with TLS-looking payloads.
	tlsPairs := map[[2]string]bool{}
	ipToName := map[string]string{}
	for _, d := range lab.Devices {
		if d.IP().IsValid() {
			ipToName[d.IP().String()] = d.Profile.Name
		}
	}
	for _, rec := range lab.Capture.All {
		p := rec.Decode()
		if p.HasTCP && len(p.AppPayload) > 5 && p.AppPayload[0] == 22 && p.AppPayload[1] == 3 {
			src, dst := ipToName[p.SrcIP().String()], ipToName[p.DstIP().String()]
			if src != "" && dst != "" {
				tlsPairs[[2]string{src, dst}] = true
			}
		}
	}
	if len(tlsPairs) < 3 {
		t.Fatalf("only %d device-to-device TLS pairs observed", len(tlsPairs))
	}
}

func TestAddHost(t *testing.T) {
	lab := New(1)
	h := lab.AddHost(200, [6]byte{0x02, 0xaa, 0, 0, 0, 1})
	if h.IPv4().String() != "192.168.10.200" {
		t.Fatalf("aux host IP %v", h.IPv4())
	}
}
