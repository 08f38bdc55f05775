package iotlan

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestExportWritesAllDatasets(t *testing.T) {
	s := study(t)
	dir := t.TempDir()
	if err := s.Export(dir); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"devices.json", "scans.json", "findings.json",
		"exfiltration.json", "api_access.json", "inspector.json",
		"honeypot.json", "metrics.json",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var v interface{}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s: invalid JSON: %v", name, err)
		}
	}

	// devices.json carries the full inventory.
	var devices []map[string]string
	data, _ := os.ReadFile(filepath.Join(dir, "devices.json"))
	if err := json.Unmarshal(data, &devices); err != nil {
		t.Fatal(err)
	}
	if len(devices) != 93 {
		t.Fatalf("exported %d devices", len(devices))
	}

	// metrics.json includes the headline experiments.
	var metrics map[string]map[string]float64
	data, _ = os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Figure 1", "Figure 2", "Table 2", "§7 mitigations"} {
		if len(metrics[id]) == 0 {
			t.Errorf("metrics.json lacks %s", id)
		}
	}

	// inspector.json holds every device's traffic windows as the dataset
	// holds them (count, start, byte counts and the local flag), in the
	// shape encoding/json gives a slice of inspector.TrafficWindow.
	var insp struct {
		Households []struct {
			ID      string
			Devices []struct {
				ID      string
				Windows []struct {
					Start     time.Time
					BytesIn   int
					BytesOut  int
					PeerLocal bool
				}
			}
		}
	}
	data, _ = os.ReadFile(filepath.Join(dir, "inspector.json"))
	if err := json.Unmarshal(data, &insp); err != nil {
		t.Fatalf("inspector.json: %v", err)
	}
	if len(insp.Households) != len(s.Inspector.Households) {
		t.Fatalf("inspector.json holds %d households, the dataset %d", len(insp.Households), len(s.Inspector.Households))
	}
	windows := 0
	for i, h := range s.Inspector.Households {
		gh, want := insp.Households[i], h.Wire()
		if gh.ID != want.ID || len(gh.Devices) != len(want.Devices) {
			t.Fatalf("household %d: %s with %d devices, want %s with %d", i, gh.ID, len(gh.Devices), want.ID, len(want.Devices))
		}
		for j, wd := range want.Devices {
			gd := gh.Devices[j]
			if gd.ID != wd.ID || len(gd.Windows) != len(wd.Windows) {
				t.Fatalf("%s device %d: %s with %d windows, want %s with %d", h.ID, j, gd.ID, len(gd.Windows), wd.ID, len(wd.Windows))
			}
			for k, w := range wd.Windows {
				g := gd.Windows[k]
				if !g.Start.Equal(time.UnixMicro(w.StartMicros)) || g.BytesIn != w.BytesIn ||
					g.BytesOut != w.BytesOut || g.PeerLocal != w.PeerLocal {
					t.Fatalf("%s device %s window %d: %+v, want %+v", h.ID, wd.ID, k, g, w)
				}
			}
			windows += len(wd.Windows)
		}
	}
	if windows == 0 {
		t.Fatal("the dataset holds no windows")
	}
}

func TestExportOnEmptyStudySkipsGracefully(t *testing.T) {
	s := New(99)
	dir := t.TempDir()
	if err := s.Export(dir); err != nil {
		t.Fatal(err)
	}
	// Only metrics.json (empty) should exist.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "metrics.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("unexpected exports: %v", names)
	}
}
