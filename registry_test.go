package iotlan

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotlan/internal/chaos"
	"iotlan/internal/device"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/resident"
)

func TestRegistryCoversEverything(t *testing.T) {
	arts := Artifacts()
	if len(arts) != 18 {
		t.Fatalf("registry has %d artifacts, want 18", len(arts))
	}
	seen := map[string]bool{}
	for _, a := range arts {
		if a.Name == "" || a.PaperRef == "" || a.Kind == "" || a.Fn == nil {
			t.Errorf("incomplete artifact: %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate artifact name %q", a.Name)
		}
		seen[a.Name] = true
	}
	// Everything returns the registry order.
	results := study(t).Everything()
	for i, r := range results {
		if r.ID != arts[i].PaperRef {
			t.Errorf("result %d: ID %q, registry says %q", i, r.ID, arts[i].PaperRef)
		}
	}
}

func TestArtifactByNameResolvesAliases(t *testing.T) {
	for lookup, want := range map[string]string{
		"figure1": "figure1", "FIG1": "figure1", "Figure 1": "figure1",
		"tab2": "table2", "entropy": "table2",
		"ports": "ports", "§4.2 open services": "ports",
		"vulnerabilities": "vulns",
		"mitigation":      "mitigations",
	} {
		a, ok := ArtifactByName(lookup)
		if !ok || a.Name != want {
			t.Errorf("ArtifactByName(%q) = %q ok=%v, want %q", lookup, a.Name, ok, want)
		}
	}
	if _, ok := ArtifactByName("figure 9"); ok {
		t.Error("unknown artifact resolved")
	}
}

func TestRunArtifactUnknownNameErrors(t *testing.T) {
	s := New(3)
	_, err := s.RunArtifact("no-such-artifact")
	if err == nil {
		t.Fatal("unknown artifact did not error")
	}
	if !strings.Contains(err.Error(), "no-such-artifact") || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("error should name the artifact and list known names: %v", err)
	}
}

func TestRunArtifactRunsOnlyNeededPipelines(t *testing.T) {
	s := study(t) // already fully run; RunArtifact must reuse it
	r, err := s.RunArtifact("tab2")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "Table 2" || r.Rendered == "" {
		t.Fatalf("unexpected result: %+v", r)
	}
	// A fresh study runs just the catalog-only artifact without booting a lab.
	fresh := New(3)
	if _, err := fresh.RunArtifact("table3"); err != nil {
		t.Fatal(err)
	}
	if fresh.Lab != nil {
		t.Fatal("table3 should not boot the lab")
	}
}

func TestNeedMaskString(t *testing.T) {
	if NeedMask(0).String() != "none" {
		t.Error("zero mask")
	}
	if got := (NeedPassive | NeedInspector).String(); got != "passive+inspector" {
		t.Errorf("mask render: %q", got)
	}
}

// Each knob has one setter, its option. New without options keeps the
// paper defaults.
func TestNewOptions(t *testing.T) {
	d := New(11)
	if d.seed != 11 || d.idleDuration != 45*time.Minute || d.interactions != 120 || d.households != 3860 {
		t.Fatalf("defaults not kept: %+v", d)
	}
	trace := obs.NewTracer(io.Discard, obs.FormatJSONL)
	pcaps := &pcap.MACWriter{}
	plan, err := chaos.Profile("lossy")
	if err != nil {
		t.Fatal(err)
	}
	residents := resident.Household(2, 1)
	profiles := device.Subset("hue-hub", "tplink-plug")
	c := New(11,
		WithIdleDuration(3*time.Minute), WithInteractions(5), WithHouseholds(10),
		WithApps(1), WithFullPortSweep(), WithTrace(trace), WithPcapWriter(pcaps),
		WithWorkers(2), WithChaos(plan), WithResidents(residents), WithLabProfiles(profiles))
	if c.seed != 11 || c.idleDuration != 3*time.Minute || c.interactions != 5 || c.households != 10 ||
		c.appsToRun != 1 || !c.fullPortSweep || c.trace != trace || c.pcaps != pcaps || c.workers != 2 ||
		!reflect.DeepEqual(c.chaosPlan, plan) || !reflect.DeepEqual(c.residentPlan, residents) ||
		!reflect.DeepEqual(c.labProfiles, profiles) {
		t.Fatalf("options not applied: %+v", c)
	}
	if !plan.Enabled() || !residents.Enabled() || len(profiles) != 2 {
		t.Fatal("option values are zero: the checks above prove nothing")
	}
}
