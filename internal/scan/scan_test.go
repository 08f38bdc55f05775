package scan

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/testbed"
)

func subsetLab(t *testing.T, names ...string) (*testbed.Lab, map[string]*device.Device) {
	t.Helper()
	var profiles []*device.Profile
	for _, p := range device.Catalog() {
		for _, n := range names {
			if p.Name == n {
				profiles = append(profiles, p)
			}
		}
	}
	if len(profiles) != len(names) {
		t.Fatalf("found %d of %d profiles", len(profiles), len(names))
	}
	lab := testbed.NewWith(1, profiles)
	lab.Start()
	lab.RunIdle(2 * time.Minute)
	byName := map[string]*device.Device{}
	for _, d := range lab.Devices {
		byName[d.Profile.Name] = d
	}
	return lab, byName
}

func scanOne(t *testing.T, lab *testbed.Lab, target netip.Addr, tcp, udp []uint16) *Result {
	t.Helper()
	host := lab.AddHost(250, [6]byte{0x02, 0x50, 0, 0, 0, 1})
	sc := &Scanner{Host: host, TCPPorts: tcp, UDPPorts: udp}
	var res *Result
	sc.Scan(target, func(r *Result) { res = r })
	lab.Sched.RunFor(time.Minute)
	if res == nil {
		t.Fatal("scan never completed")
	}
	return res
}

func TestSynScanFindsOpenPorts(t *testing.T) {
	lab, devs := subsetLab(t, "hue-hub")
	hue := devs["hue-hub"]
	res := scanOne(t, lab, hue.IP(), []uint16{80, 443, 1234, 8080}, []uint16{})
	if len(res.TCPOpen) != 2 || res.TCPOpen[0] != 80 || res.TCPOpen[1] != 443 {
		t.Fatalf("open TCP: %v", res.TCPOpen)
	}
	if !res.RespondedTCP {
		t.Fatal("RespondedTCP false")
	}
	if res.Services["tcp/80"] != "http" || res.Services["tcp/443"] != "https" {
		t.Fatalf("services: %v", res.Services)
	}
}

func TestFullSweepMatchesGroundTruth(t *testing.T) {
	lab, devs := subsetLab(t, "echo-1")
	echo := devs["echo-1"]
	res := scanOne(t, lab, echo.IP(), AllTCPPorts(), nil)
	want := map[uint16]bool{}
	for _, p := range echo.Host.TCPPorts() {
		want[p] = true
	}
	got := map[uint16]bool{}
	for _, p := range res.TCPOpen {
		got[p] = true
	}
	for p := range want {
		if !got[p] {
			t.Errorf("ground-truth open port %d not found", p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("phantom open port %d", p)
		}
	}
	// Echo's signature ports (§4.2).
	for _, p := range []uint16{55442, 55443, 4070} {
		if !got[p] {
			t.Errorf("Echo port %d not open", p)
		}
	}
}

func TestUDPScan(t *testing.T) {
	lab, devs := subsetLab(t, "homepod-1")
	hp := devs["homepod-1"]
	res := scanOne(t, lab, hp.IP(), []uint16{}, []uint16{53, 54, 100})
	if len(res.UDPOpen) != 1 || res.UDPOpen[0] != 53 {
		t.Fatalf("open UDP: %v (HomePod Mini runs DNS on 53)", res.UDPOpen)
	}
	if res.Services["udp/53"] != "domain" {
		t.Fatalf("service: %v", res.Services)
	}
}

func TestSilentDeviceShowsNothing(t *testing.T) {
	// Generic sensors don't respond to scans at all (§3.1: only 54 devices
	// answered TCP scans).
	lab, devs := subsetLab(t, "keyco-air")
	res := scanOne(t, lab, devs["keyco-air"].IP(), []uint16{80, 443}, []uint16{53})
	if res.RespondedTCP || res.RespondedUDP || res.RespondedIP {
		t.Fatalf("silent device responded: %+v", res)
	}
	if len(res.TCPOpen) != 0 || len(res.UDPOpen) != 0 {
		t.Fatalf("phantom ports on silent device: %+v", res)
	}
}

func TestIPProtocolScan(t *testing.T) {
	lab, devs := subsetLab(t, "hue-hub")
	res := scanOne(t, lab, devs["hue-hub"].IP(), []uint16{80}, []uint16{99})
	if !res.RespondedIP {
		t.Fatal("hue hub should answer the IP scan")
	}
	seen := map[uint8]bool{}
	for _, p := range res.IPProtos {
		seen[p] = true
	}
	for _, want := range []uint8{1, 6, 17} {
		if !seen[want] {
			t.Errorf("protocol %d missing from %v", want, res.IPProtos)
		}
	}
}

func TestNmapQuirksAndCorrections(t *testing.T) {
	if GuessService("tcp", 8009) != "ajp13" {
		t.Fatal("8009 should guess ajp13 (the nmap quirk)")
	}
	if CorrectedService("tcp", 8009) != "TLS (Google Cast)" {
		t.Fatal("8009 correction missing")
	}
	if GuessService("udp", 6666) != "irc" {
		t.Fatal("6666 should guess irc")
	}
	if CorrectedService("udp", 6666) != "TuyaLP" {
		t.Fatal("6666 correction missing")
	}
	if GuessService("tcp", 31337) != "unknown" {
		t.Fatal("unknown port should guess unknown")
	}
	if len(MislabeledPorts()) < 10 {
		t.Fatalf("only %d mislabeled ports catalogued", len(MislabeledPorts()))
	}
}
