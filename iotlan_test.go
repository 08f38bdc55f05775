package iotlan

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotlan/internal/pcap"
)

// testStudy caches one full run across tests (the pipelines are deliberately
// deterministic, so sharing is safe).
var testStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if testStudy == nil {
		s := New(7, WithIdleDuration(30*time.Minute), WithInteractions(60),
			WithHouseholds(1200), WithApps(60))
		s.satisfy(NeedPassive | NeedScans | NeedVuln | NeedApps | NeedInspector)
		testStudy = s
	}
	return testStudy
}

func TestStudyEverythingProducesAllArtifacts(t *testing.T) {
	results := study(t).Everything()
	want := map[string]bool{
		"Table 3": false, "Figure 1": false, "Figure 2": false,
		"Figure 3": false, "Figure 4": false, "Table 1": false,
		"Table 2": false, "Table 4": false, "Table 5": false,
		"§4.2 open services": false, "§5.1 discovery intervals": false,
		"Appendix D.1": false, "§5.2 vulnerabilities": false,
		"§6.1/§6.2 exfiltration": false, "honeypot": false,
	}
	for _, r := range results {
		if _, ok := want[r.ID]; ok {
			want[r.ID] = true
		}
		if r.Rendered == "" {
			t.Errorf("%s: empty rendering", r.ID)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("artifact %s missing from Everything()", id)
		}
	}
}

func TestHeadlineShapes(t *testing.T) {
	s := study(t)

	t3 := s.Table3()
	if t3.Metrics["devices"] != 93 || t3.Metrics["unique_models"] != 78 {
		t.Errorf("Table 3: %v", t3.Metrics)
	}

	f1 := s.Figure1()
	if f := f1.Metrics["talker_fraction"]; f < 0.2 || f > 0.8 {
		t.Errorf("Figure 1 talker fraction %.2f (paper: 0.46)", f)
	}
	if f := f1.Metrics["intra_cluster_fraction"]; f < 0.5 {
		t.Errorf("Figure 1 intra-cluster fraction %.2f", f)
	}

	f2 := s.Figure2()
	if v := f2.Metrics["passive/ARP"]; v < 80 {
		t.Errorf("ARP prevalence %.1f (paper: 92)", v)
	}
	if v := f2.Metrics["passive/mDNS"]; v < 30 || v > 60 {
		t.Errorf("mDNS prevalence %.1f (paper: 44)", v)
	}
	if v := f2.Metrics["apps/mDNS"]; v < 4 || v > 8 {
		t.Errorf("app mDNS %.1f%% (paper: 6)", v)
	}
	if v := f2.Metrics["apps/SSDP"]; v < 2 || v > 6 {
		t.Errorf("app SSDP %.1f%% (paper: 4)", v)
	}

	f3 := s.Figure3()
	if v := f3.Metrics["disagree_frac"]; v <= 0 || v > 0.45 {
		t.Errorf("classifier disagreement %.2f (paper: 0.16)", v)
	}

	t2 := s.Table2()
	if v := t2.Metrics["unique_pct/UUID"]; v < 90 {
		t.Errorf("UUID uniqueness %.1f%% (paper: 94.2)", v)
	}
	if v := t2.Metrics["unique_pct/UUID+MAC"]; v < 90 {
		t.Errorf("UUID+MAC uniqueness %.1f%% (paper: 95.6)", v)
	}

	op := s.OpenPorts()
	if v := op.Metrics["unique_tcp_ports"]; v < 15 {
		t.Errorf("unique open TCP ports %.0f (paper: 178 across a larger service universe)", v)
	}
	if v := op.Metrics["echo_port_devices"]; v < 10 {
		t.Errorf("devices with Echo ports %.0f (paper: ~20%% of 93)", v)
	}

	pd := s.Periodicity()
	if v := pd.Metrics["periodic_fraction"]; v < 0.5 {
		t.Errorf("periodic fraction %.2f (paper: 0.88)", v)
	}

	vs := s.VulnSummary()
	if v := vs.Metrics["devices/CVE-2016-2183"]; v < 5 {
		t.Errorf("weak-key TLS devices %.0f (Google ecosystem)", v)
	}
	if v := vs.Metrics["high_or_critical"]; v < 10 {
		t.Errorf("high/critical findings %.0f", v)
	}

	ex := s.Exfiltration()
	if v := ex.Metrics["apps_sending/device_mac"]; v < 3 {
		t.Errorf("apps exfiltrating MACs %.0f (paper: 6 IoT apps + SDK hosts)", v)
	}
	if v := ex.Metrics["sdk_channels"]; v < 3 {
		t.Errorf("SDK channels %.0f", v)
	}

	hp := s.HoneypotReport()
	if v := hp.Metrics["visitors"]; v < 1 {
		t.Errorf("honeypot visitors %.0f", v)
	}
}

// TestWritePcaps streams the smallest passive window into per-MAC files:
// one *.pcap per MAC that sent a frame, every captured MAC among them.
func TestWritePcaps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pcaps")
	w, err := pcap.NewMACWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(5, WithIdleDuration(time.Minute), WithInteractions(2), WithWorkers(1), WithPcapWriter(w))
	s.RunPassive()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 90 {
		t.Fatalf("wrote %d pcap files, want ≥90 (one per MAC)", len(entries))
	}
	files := make(map[string]bool, len(entries))
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".pcap") {
			t.Fatalf("unexpected file %s", e.Name())
		}
		files[e.Name()] = true
	}
	for _, r := range s.Lab.Capture.All {
		if name := fmt.Sprintf("%x.pcap", r.Data[6:12]); !files[name] {
			t.Fatalf("no pcap file %s for a captured frame", name)
		}
	}
}

func TestDeviceIPsComplete(t *testing.T) {
	s := study(t)
	ips := s.DeviceIPs()
	if len(ips) != 93 {
		t.Fatalf("%d device IPs", len(ips))
	}
	for name, ip := range ips {
		if !ip.IsValid() {
			t.Errorf("%s has no address", name)
		}
	}
}

func TestLocalRecordsFiltered(t *testing.T) {
	s := study(t)
	local := pcap.CountLocal(s.PassiveRecords())
	if local == 0 || local > s.Lab.Capture.Len() {
		t.Fatalf("local=%d total=%d", local, s.Lab.Capture.Len())
	}
}
