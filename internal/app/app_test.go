package app

import (
	"strings"
	"testing"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/testbed"
)

func TestDatasetShape(t *testing.T) {
	apps := Dataset(1)
	s := Summarize(apps)
	if s.Total != 2335 {
		t.Fatalf("total %d", s.Total)
	}
	if s.IoT < 900 || s.IoT > 1100 {
		t.Fatalf("IoT apps %d, want ≈987", s.IoT)
	}
	// Figure 2 app fractions: mDNS 6%, SSDP 4%, NetBIOS ~0.5%, TLS 25%.
	within := func(name string, n, lo, hi int) {
		if n < lo || n > hi {
			t.Errorf("%s: %d apps, want [%d, %d]", name, n, lo, hi)
		}
	}
	within("mDNS", s.MDNS, 100, 160)
	within("SSDP", s.SSDP, 60, 110)
	within("NetBIOS", s.NetBIOS, 8, 14)
	within("TLS", s.TLS, 450, 680)
	within("router SSID collectors", s.RouterSSID, 25, 40)
	within("router MAC collectors", s.RouterMAC, 20, 32)
	within("wifi MAC collectors", s.WifiMAC, 10, 18)
	within("downlink receivers", s.Downlink, 10, 16)
}

func TestDatasetDeterministic(t *testing.T) {
	a, b := Dataset(5), Dataset(5)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Package != b[i].Package || a[i].UsesMDNS != b[i].UsesMDNS {
			t.Fatalf("apps diverge at %d", i)
		}
	}
}

func TestPermissionModel(t *testing.T) {
	normal := []Permission{PermInternet, PermMulticast}
	if CheckSSIDAccess(Android13, normal) {
		t.Fatal("SSID accessible without NEARBY_WIFI_DEVICES on 13")
	}
	if !CheckSSIDAccess(Android13, append(normal, PermNearbyWifiDevices)) {
		t.Fatal("NEARBY_WIFI_DEVICES should grant SSID on 13")
	}
	if !CheckSSIDAccess(Android9, append(normal, PermFineLocation)) {
		t.Fatal("location should grant SSID on 9")
	}
	if CheckSSIDAccess(Android9, normal) {
		t.Fatal("SSID accessible without location on 9")
	}
	// The §2.1 bypass: discovery scanning needs only normal permissions.
	if !CanScanDiscovery(normal) {
		t.Fatal("discovery scan should work with INTERNET+MULTICAST only")
	}
}

func subsetLab(t *testing.T, names ...string) *testbed.Lab {
	t.Helper()
	var profiles []*device.Profile
	for _, p := range device.Catalog() {
		for _, n := range names {
			if p.Name == n {
				profiles = append(profiles, p)
			}
		}
	}
	lab := testbed.NewWith(1, profiles)
	lab.Start()
	lab.RunIdle(3 * time.Minute)
	return lab
}

func findApp(t *testing.T, pkg string) *App {
	t.Helper()
	apps := Dataset(1)
	for i := range apps {
		if apps[i].Package == pkg {
			return &apps[i]
		}
	}
	t.Fatalf("app %q not in dataset", pkg)
	return nil
}

func records(rt *Runtime, dataType string) []ExfilRecord {
	var out []ExfilRecord
	for _, r := range rt.Records {
		if r.DataType == dataType {
			out = append(out, r)
		}
	}
	return out
}

func TestPoCDiscoveryWithoutDangerousPermissions(t *testing.T) {
	// The §2.1 proof-of-concept: an Android 13 app holding only INTERNET
	// and CHANGE_WIFI_MULTICAST_STATE discovers devices via mDNS.
	lab := subsetLab(t, "hue-hub", "google-3")
	rt := NewRuntime(lab, Android13)
	poc := &App{
		Package:     "com.example.poc",
		Permissions: []Permission{PermInternet, PermMulticast},
		UsesMDNS:    true,
	}
	rt.Run(poc)
	if len(rt.Harvest) == 0 {
		t.Fatal("PoC app discovered no device identifiers")
	}
	// Discovery succeeded, but a non-exfiltrating app ships nothing (§6.1).
	if len(records(rt, "device_mac")) != 0 {
		t.Fatal("non-exfiltrating app uploaded MACs")
	}
	for _, c := range rt.APILog {
		if c.App == "com.example.poc" && c.API == "NsdManager.discoverServices" && !c.Granted {
			t.Fatal("NsdManager should be usable with normal permissions")
		}
	}
}

func TestAlexaCompanionExfiltratesMACs(t *testing.T) {
	lab := subsetLab(t, "hue-hub", "tplink-plug", "echo-1")
	rt := NewRuntime(lab, Android9)
	alexa := findApp(t, "com.amazon.dee.app")
	rt.Run(alexa)
	macs := records(rt, "device_mac")
	if len(macs) == 0 {
		t.Fatal("Alexa app collected no MACs")
	}
	// TPLINK-SHP identifiers reach the cloud (§6.1).
	if len(records(rt, "tplink_oem_id")) == 0 {
		t.Error("TP-Link OEM id not exfiltrated")
	}
	if len(records(rt, "geolocation")) == 0 {
		t.Error("plug geolocation not exfiltrated")
	}
	// Downlink dissemination: the app receives MACs back from the cloud.
	downlink := 0
	for _, r := range rt.Records {
		if r.Direction == "downlink" && r.DataType == "device_mac" {
			downlink++
		}
	}
	if downlink == 0 {
		t.Error("no downlink MAC dissemination")
	}
}

func TestInnoSDKScansWholeSubnet(t *testing.T) {
	lab := subsetLab(t, "lg-tv", "samsung-tv")
	rt := NewRuntime(lab, Android9)
	lucky := findApp(t, "com.luckyapp.winner")
	before := lab.Capture.Len()
	rt.Run(lucky)
	// The SDK probes all 254 addresses regardless of liveness: on the wire
	// that appears as an ARP storm for every address (UDP to dead IPs never
	// leaves the ARP queue, exactly as on a real LAN) plus UDP probes to
	// every live host.
	arpTargets := map[[4]byte]bool{}
	udpProbes := 0
	for _, r := range lab.Capture.All[before:] {
		p := r.Decode()
		if p.HasARP && p.ARP.Op == 1 && p.Eth.Src == rt.Phone.MAC() {
			arpTargets[p.ARP.TargetIP] = true
		}
		if p.HasUDP && p.UDP.DstPort == 7423 {
			udpProbes++
		}
	}
	if len(arpTargets) < 200 {
		t.Fatalf("innosdk ARPed %d addresses, want ~254", len(arpTargets))
	}
	if udpProbes < 2 {
		t.Fatalf("innosdk reached %d live hosts via UDP", udpProbes)
	}
	// NetBIOS responders (the TVs) leak names + MAC to the SDK endpoint.
	found := false
	for _, r := range rt.Records {
		if r.SDK == "innosdk" && r.Endpoint == "gw.innotechworld.com" && r.DataType == "device_mac" {
			found = true
		}
	}
	if !found {
		t.Fatal("innosdk exfiltrated nothing")
	}
}

func TestAppDynamicsSideChannel(t *testing.T) {
	lab := subsetLab(t, "fire-tv", "chromecast")
	rt := NewRuntime(lab, Android9)
	cnn := findApp(t, "com.cnn.mobile.android.phone")
	rt.Run(cnn)
	var gotSSID, gotScreens bool
	for _, r := range rt.Records {
		if r.SDK != "appdynamics" || r.Endpoint != "events.claspws.tv" {
			continue
		}
		switch r.DataType {
		case "router_ssid_b64":
			gotSSID = r.Value == base64SSID(rt.RouterSSID)
		case "screen_device_list":
			gotScreens = strings.Contains(r.Value, "uuid")
		}
	}
	if !gotSSID {
		t.Error("AppDynamics did not ship the base64 SSID")
	}
	if !gotScreens {
		t.Error("AppDynamics did not ship the screen device list")
	}
}

func TestMyTrackerBypassesPermissions(t *testing.T) {
	lab := subsetLab(t, "hue-hub")
	rt := NewRuntime(lab, Android13)
	host := findApp(t, "com.fancyclean.boostmaster")
	rt.Run(host)
	// The app holds no dangerous permission yet router identifiers flow.
	got := false
	for _, r := range rt.Records {
		if r.SDK == "mytracker" && r.DataType == "router_mac" && r.Value == rt.RouterBSSID {
			got = true
		}
	}
	if !got {
		t.Fatal("MyTracker did not collect the router MAC")
	}
	sidestepped := false
	for _, c := range rt.APILog {
		if c.App == host.Package && c.SideStepped {
			sidestepped = true
		}
	}
	if !sidestepped {
		t.Fatal("no side-channel API access logged")
	}
}

func TestExtractMACs(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"Philips Hue - 685F61", 0},
		{"bridgeid=001788fffe685f61", 0}, // EUI-64, not a 12-hex MAC
		{"deviceid=9c:8e:cd:0a:33:1b", 1},
		{"a=9C8ECD0A331B", 1},
		{"bs=9C8ECD0A331B x=00:17:88:68:5f:61", 2},
		{"no identifiers here", 0},
	}
	for _, c := range cases {
		if got := extractMACs(c.in); len(got) != c.want {
			t.Errorf("extractMACs(%q) = %v, want %d", c.in, got, c.want)
		}
	}
}
