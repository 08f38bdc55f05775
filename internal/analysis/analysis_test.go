package analysis

import (
	"strings"
	"testing"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/inspector"
	"iotlan/internal/testbed"
)

// sharedLab runs one 45-minute full-catalog capture for all analyses.
var sharedLab *testbed.Lab

func lab(t *testing.T) *testbed.Lab {
	t.Helper()
	if sharedLab == nil {
		sharedLab = testbed.New(11)
		sharedLab.Start()
		sharedLab.RunIdle(45 * time.Minute)
		sharedLab.Interact(60)
	}
	return sharedLab
}

func TestGraphTalkerFraction(t *testing.T) {
	l := lab(t)
	g := BuildGraph(l.Capture.All, l.Devices)
	frac := g.TalkerFraction()
	// Paper: 43/93 ≈ 0.46 of devices talk locally over unicast.
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("talker fraction %.2f outside plausible band", frac)
	}
	if len(g.Edges) < 10 {
		t.Fatalf("only %d edges", len(g.Edges))
	}
}

func TestGraphClustersAreVendorAligned(t *testing.T) {
	l := lab(t)
	g := BuildGraph(l.Capture.All, l.Devices)
	frac := IntraClusterFraction(g, l.Devices)
	// Figure 1/4: edges concentrate inside vendor/platform clusters.
	if frac < 0.5 {
		t.Fatalf("intra-cluster edge fraction %.2f, want ≥0.5", frac)
	}
	clusters := VendorClusters(g, l.Devices)
	if clusters["Amazon↔Amazon"] == 0 {
		t.Error("no Amazon-internal edges")
	}
	if len(RenderGraph(g)) == 0 {
		t.Error("empty graph render")
	}
}

func TestProtocolTableShape(t *testing.T) {
	l := lab(t)
	rows := ProtocolTable(PassiveProtocols(l.Capture.All, l.Devices), len(l.Devices), nil, nil)
	get := func(name string) float64 {
		for _, r := range rows {
			if r.Protocol == name {
				return r.PassivePct
			}
		}
		return 0
	}
	// Figure 2's ordering: management protocols near-universal, discovery
	// protocols high, proprietary protocols lower.
	if arp := get("ARP"); arp < 80 {
		t.Errorf("ARP prevalence %.1f%%, want ≥80%%", arp)
	}
	if dhcp := get("DHCP"); dhcp < 80 {
		t.Errorf("DHCP prevalence %.1f%%, want ≥80%%", dhcp)
	}
	if m := get("mDNS"); m < 30 || m > 60 {
		t.Errorf("mDNS prevalence %.1f%%, want ≈44%%", m)
	}
	if s := get("SSDP"); s < 15 || s > 50 {
		t.Errorf("SSDP prevalence %.1f%%, want ≈32%%", s)
	}
	if tp := get("TPLINK_SHP"); tp < 2 {
		t.Errorf("TPLINK_SHP prevalence %.1f%%", tp)
	}
	if eap := get("EAPOL"); eap < 60 {
		t.Errorf("EAPOL prevalence %.1f%%, want ≈84%%", eap)
	}
	if RenderProtocolTable(rows) == "" {
		t.Error("empty render")
	}
}

func TestAvgProtocolsPerDevice(t *testing.T) {
	l := lab(t)
	avg, max, maxDev := AvgProtocolsPerDevice(PassiveProtocols(l.Capture.All, l.Devices))
	// Paper: average ≈8, max 16 (Nest Hub). The simulated protocol universe
	// is a subset, so accept a broad band around the shape.
	if avg < 2 || avg > 12 {
		t.Errorf("avg protocols per device %.1f", avg)
	}
	if max < 5 {
		t.Errorf("max protocols %d (%s)", max, maxDev)
	}
	if !strings.Contains(maxDev, "google") && !strings.Contains(maxDev, "echo") && !strings.Contains(maxDev, "chromecast") {
		t.Logf("note: busiest device is %s with %d protocols", maxDev, max)
	}
}

func TestExposureMatrix(t *testing.T) {
	l := lab(t)
	m := BuildExposure(l.Capture.All)
	// Table 1's filled cells.
	want := [][2]string{
		{"ARP", ExpMAC},
		{"DHCP", ExpDeviceModel},
		{"DHCP", ExpOSVersion},
		{"DHCP", ExpDisplayName},
		{"DHCP", ExpOutdatedSW},
		{"mDNS", ExpMAC},
		{"mDNS", ExpDisplayName},
		{"mDNS", ExpUUID},
		{"mDNS", ExpDeviceModel},
		{"SSDP", ExpUUID},
		{"SSDP", ExpOSVersion},
		{"SSDP", ExpOutdatedSW},
		{"TuyaLP", ExpGWID},
		{"TuyaLP", ExpProdKey},
		{"TPLINK", ExpGeolocation},
		{"TPLINK", ExpOEMID},
		{"TPLINK", ExpDisplayName},
		{"TPLINK", ExpMAC},
	}
	for _, cell := range want {
		if !m.Exposed(cell[0], cell[1]) {
			t.Errorf("Table 1 cell (%s, %s) not observed", cell[0], cell[1])
		}
	}
	// Negative cells: ARP exposes nothing beyond the MAC.
	if m.Exposed("ARP", ExpUUID) || m.Exposed("ARP", ExpGeolocation) {
		t.Error("ARP should expose only MACs")
	}
	if RenderExposure(m) == "" || len(ExposureEvidence(m)) == 0 {
		t.Error("render/evidence empty")
	}
}

func TestEntropyTable(t *testing.T) {
	ds := inspector.Generate(3, 3860)
	rows := EntropyTable(ds)
	byKey := map[string]EntropyRow{}
	for _, r := range rows {
		byKey[r.Key()] = r
	}
	// Table 2's structure: a large no-exposure class, UUID-only the biggest
	// exposing class, high uniqueness for UUID-bearing combos, entropy
	// rising with identifier count.
	none, ok := byKey["none"]
	if !ok || none.Households < 500 {
		t.Fatalf("no-exposure row: %+v", none)
	}
	uuid := byKey["UUID"]
	if uuid.Households < 1000 {
		t.Fatalf("UUID-only row too small: %+v", uuid)
	}
	if uuid.UniquePct < 90 {
		t.Errorf("UUID uniqueness %.1f%%, want ≥90%% (paper: 94.2%%)", uuid.UniquePct)
	}
	mac := byKey["MAC"]
	if mac.Households == 0 || mac.UniquePct < 90 {
		t.Errorf("MAC row: %+v (paper: 94.4%% unique)", mac)
	}
	um := byKey["UUID, MAC"]
	if um.Households == 0 || um.UniquePct < 90 {
		t.Errorf("UUID+MAC row: %+v (paper: 95.6%%)", um)
	}
	if um.EntropyBits <= uuid.EntropyBits/2 {
		t.Errorf("entropy should grow with combined identifiers: UUID=%.1f UUID+MAC=%.1f",
			uuid.EntropyBits, um.EntropyBits)
	}
	all := byKey["name, UUID, MAC"]
	if all.Households == 0 {
		t.Error("no household exposes all three identifier classes")
	} else if all.UniquePct < 99 {
		t.Errorf("all-three uniqueness %.1f%%, want ~100%%", all.UniquePct)
	}
	if RenderEntropyTable(rows) == "" {
		t.Error("empty render")
	}
}

func TestEntropyTableCachedIdentifiersEquivalent(t *testing.T) {
	ds := inspector.Generate(3, 500)
	inline := EntropyTable(ds)
	for _, workers := range []int{1, 8} {
		cached := EntropyTableWith(ds, ExtractIdentifiers(ds, workers))
		if RenderEntropyTable(inline) != RenderEntropyTable(cached) {
			t.Fatalf("workers=%d: cached extraction changed Table 2", workers)
		}
	}
}

func TestPossessiveNameRegex(t *testing.T) {
	got := findPossessives("Roku 3 - Jane's Room and Bob's Kitchen")
	if len(got) != 2 || got[0] != "Jane's Room" || got[1] != "Bob's Kitchen" {
		t.Fatalf("possessives: %v", got)
	}
	if n := findPossessives("no names here"); len(n) != 0 {
		t.Fatalf("false positives: %v", n)
	}
}

func TestFindUUIDs(t *testing.T) {
	got := findUUIDs("USN: uuid:2f402f80-da50-11e1-9b23-001788685f61::upnp:rootdevice")
	if len(got) != 1 || got[0] != "2f402f80-da50-11e1-9b23-001788685f61" {
		t.Fatalf("uuids: %v", got)
	}
	if n := findUUIDs("not-a-uuid-at-all"); len(n) != 0 {
		t.Fatalf("false positives: %v", n)
	}
}

func TestPeriodicity(t *testing.T) {
	l := lab(t)
	s := SummarizePeriodicity(l.Capture.All)
	if s.Groups < 50 {
		t.Fatalf("only %d discovery groups", s.Groups)
	}
	// Appendix D.1: 88% of discovery flows periodic, ~6.2 groups/device.
	if s.PeriodicFrac < 0.5 {
		t.Errorf("periodic fraction %.2f, want ≥0.5 (paper: 0.88)", s.PeriodicFrac)
	}
	if s.GroupsPerDevice < 1 || s.GroupsPerDevice > 20 {
		t.Errorf("groups per device %.1f (paper: 6.2)", s.GroupsPerDevice)
	}
}

func TestIsPeriodicSynthetic(t *testing.T) {
	base := time.Unix(1668384000, 0)
	var periodic, noisy []time.Time
	for i := 0; i < 60; i++ {
		periodic = append(periodic, base.Add(time.Duration(i)*20*time.Second))
	}
	rngState := uint32(12345)
	next := func(mod int) int {
		rngState = rngState*1103515245 + 12345
		return int(rngState>>16) % mod
	}
	at := base
	for i := 0; i < 60; i++ {
		at = at.Add(time.Duration(1+next(600)) * time.Second)
		noisy = append(noisy, at)
	}
	if ok, period := isPeriodic(periodic); !ok || period < 15*time.Second || period > 25*time.Second {
		t.Fatalf("20s train: periodic=%v period=%v", ok, period)
	}
	if ok, _ := isPeriodic(noisy); ok {
		t.Fatal("random train flagged periodic")
	}
}

func TestResponseTable(t *testing.T) {
	l := lab(t)
	rows := ResponseTable(l.Capture.All, l.Devices)
	if len(rows) < 4 {
		t.Fatalf("only %d rows", len(rows))
	}
	byCat := map[device.Category]ResponseRow{}
	for _, r := range rows {
		byCat[r.Category] = r
	}
	echo := byCat["Amazon Echo"]
	if echo.Devices == 0 {
		t.Fatal("no Amazon Echo row")
	}
	// Table 4: Echo devices get responses from the most devices.
	for _, r := range rows {
		if r.Category != "Amazon Echo" && r.AvgResponders > echo.AvgResponders+3 {
			t.Errorf("%s out-responds Echo: %.2f vs %.2f", r.Category, r.AvgResponders, echo.AvgResponders)
		}
	}
	if RenderResponseTable(rows) == "" {
		t.Error("empty render")
	}
}

func TestDiscoveryIntervals(t *testing.T) {
	l := lab(t)
	rows := DiscoveryIntervals(l.Capture.All, l.Devices)
	if len(rows) < 20 {
		t.Fatalf("only %d interval rows", len(rows))
	}
	// §5.1: Google mDNS ≈20 s.
	if med, ok := VendorMedian(rows, "Google", "mDNS"); !ok || med < 10*time.Second || med > 60*time.Second {
		t.Errorf("Google mDNS median %v ok=%v, want ≈20s", med, ok)
	}
	// §5.1: Google SSDP ≈20 s.
	if med, ok := VendorMedian(rows, "Google", "SSDP"); !ok || med > 90*time.Second {
		t.Errorf("Google SSDP median %v ok=%v, want ≈20s", med, ok)
	}
	// Amazon mDNS in the 20–100 s band.
	if med, ok := VendorMedian(rows, "Amazon", "mDNS"); !ok || med < 10*time.Second || med > 150*time.Second {
		t.Errorf("Amazon mDNS median %v ok=%v, want 20–100s", med, ok)
	}
	if RenderIntervals(rows) == "" {
		t.Error("empty render")
	}
}
