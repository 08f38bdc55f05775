package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/serve"
)

// benchmarkFile is BENCHMARK.json as the harness reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFile lints BENCHMARK.json and keeps it in step with the
// metric tables the harness reports from.
func TestBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(f.Command) == 0 || len(f.Paths) != 1 || f.Paths[0] != "bench" || f.RunSeconds != windowSeconds {
		t.Errorf("command %q, paths %q, run_seconds %d: want a command, paths [bench], the %d s window",
			f.Command, f.Paths, f.RunSeconds, windowSeconds)
	}
	if err := (options{}).validate(0, f.RunSeconds); err != nil {
		t.Errorf("run_seconds is refused as -seconds: %v", err)
	}
	if err := (options{}).validate(0, f.RunSeconds+1); err == nil {
		t.Error("a -seconds other than the window was accepted")
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d is %q, the harness runs %q", i, w.Name, workloads[i])
		}
		if strings.TrimSpace(w.Why) == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q needs a one-line why", w.Name)
		}
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}

	setupBound, maxBound := 0.0, 0.0
	if len(f.EndToEnd) != len(e2eMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(e2eMetrics))
	}
	for i, m := range f.EndToEnd {
		checkName(m.Name)
		if i < len(e2eMetrics) && (m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit || m.Better != e2eMetrics[i].better) {
			t.Errorf("end-to-end %d is %s [%s, %s]; the harness reports %+v", i, m.Name, m.Unit, m.Better, e2eMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound (has %v, largest %v)", setupBound, maxBound)
	}

	if len(f.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		checkName(m.Name)
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit || m.Better != layerMetrics[i].better) {
			t.Errorf("per-layer %d is %s [%s, %s]; the harness reports %s [%s, %s]", i, m.Name, m.Unit, m.Better,
				layerMetrics[i].name, layerMetrics[i].unit, layerMetrics[i].better)
		}
	}
	for _, def := range layerMetrics {
		if def.name == opLatency {
			if def.target != "" {
				t.Errorf("%s is the operation latency itself; it targets nothing, not %q", def.name, def.target)
			}
		} else if !isE2E(def.target) && def.target != opLatency {
			t.Errorf("%s targets %q, neither an end-to-end metric nor %s", def.name, def.target, opLatency)
		}
		if len(def.owners) == 0 {
			t.Errorf("%s has no owner workload", def.name)
		}
		for _, o := range def.owners {
			if !known(o) {
				t.Errorf("%s is owned by unknown workload %q", def.name, o)
			}
		}
	}
}

func isE2E(name string) bool {
	for _, d := range e2eMetrics {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestWorkloads runs every workload traced at probe sizes. Each must pass
// its gates, emit every end-to-end metric finite, write a valid Chrome
// trace and measure every per-layer metric it owns; filled from the other
// workloads' runs, every per-layer metric is present.
func TestWorkloads(t *testing.T) {
	reports := map[string]*report{}
	for _, name := range workloads {
		e := &env{seed: 1, sz: probeSizes(), trace: true, dir: t.TempDir()}
		rep, chrome, err := measureTraced(name, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range rep.gateErrs {
			t.Errorf("%s: gate: %v", name, g)
		}
		if rep.failed != 0 || rep.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", name, rep.failed, rep.attempted)
		}
		var events []map[string]any
		if err := json.Unmarshal(chrome, &events); err != nil || len(events) == 0 {
			t.Errorf("%s: Chrome trace is not a non-empty JSON array: %v", name, err)
		}
		checkMetrics(t, name, e2eMetrics, rep.result(false), func(metricDef) bool { return true })
		checkMetrics(t, name, layerMetrics, rep.result(true), func(d metricDef) bool { return owns(d, name) })
		reports[name] = rep
	}
	for name, rep := range reports {
		fillFromProbes(name, rep, reports)
		checkMetrics(t, name+" filled", layerMetrics, rep.result(true), func(metricDef) bool { return true })
	}
}

// checkMetrics requires every selected metric in res with its declared unit
// and a finite value that was measured (a layer the workload ran never
// reads exactly zero time).
func checkMetrics(t *testing.T, who string, defs []metricDef, res result, selected func(metricDef) bool) {
	t.Helper()
	for _, d := range defs {
		if !selected(d) {
			continue
		}
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", who, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, want %q", who, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", who, d.name, m.Value)
		case m.Value == 0 && timeUnit(d.unit):
			t.Errorf("%s: %s reads exactly 0 %s", who, d.name, d.unit)
		}
	}
}

func timeUnit(u string) bool { return u == "s" || u == "ms" || u == "us" }

// TestGatesRejectWrongReference feeds each correctness gate a wrong
// reference and the right one.
func TestGatesRejectWrongReference(t *testing.T) {
	if err := reproGate([]string{"a", "a", "a"}, "a"); err != nil {
		t.Errorf("repro gate rejected matching checksums: %v", err)
	}
	if err := reproGate([]string{"a", "a", "a"}, "b"); err == nil {
		t.Error("repro gate accepted a checksum differing from the reference")
	}
	if err := reproGate([]string{"a", "b", "a"}, ""); err == nil {
		t.Error("repro gate accepted differing Everything checksums")
	}
	if sum, err := referenceChecksum(); err != nil || len(sum) != 64 {
		t.Errorf("reference.json: seed 1 checksum %q, %v", sum, err)
	}

	hhs := inspector.Generate(1, 20).Households
	srv, err := serve.Open(serverConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	s, err := listen(srv)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer s.close()
	c := newClient()
	defer c.CloseIdleConnections()
	ctx := context.Background()
	if _, err := post(ctx, c, s.base, upload{"/v1/ingest/inspector", wireBody(hhs...)}); err != nil {
		t.Fatal(err)
	}
	right := offlineReference(hhs)
	if err := servedGate(ctx, c, s, right, "test"); err != nil {
		t.Errorf("served gate rejected the offline reference: %v", err)
	}
	for _, wrong := range []fleetReference{
		{table2: "0", mitigations: right.mitigations},
		{table2: right.table2, mitigations: "0"},
		offlineReference(hhs[:19]),
	} {
		if err := servedGate(ctx, c, s, wrong, "test"); err == nil {
			t.Errorf("served gate accepted wrong reference %+v", wrong)
		}
	}
}

// TestScale: an interval measured while the calibration reads its
// reference time is unchanged, and one measured on a host running at half
// speed is halved.
func TestScale(t *testing.T) {
	d := 80 * time.Millisecond
	if got := scale(d, calibRef, calibRef); got != d {
		t.Errorf("at reference speed: %v, want %v", got, d)
	}
	if got := scale(d, calibRef, 3*calibRef); got != d/2 {
		t.Errorf("at half speed: %v, want %v", got, d/2)
	}
	c := newCalibrator(2)
	if r := c.read(); r <= 0 || c.last != r || len(c.readings) != 2 {
		t.Errorf("read %v, last %v, %d readings", r, c.last, len(c.readings))
	}
}

// TestDeadlineStopsHungChild: a child that outlives its deadline is
// signalled, waited for and reported as failed.
func TestDeadlineStopsHungChild(t *testing.T) {
	start := time.Now()
	if err := runWithDeadline(exec.Command("sleep", "60"), 100*time.Millisecond); err == nil {
		t.Fatal("a hung child was not reported as failed")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("stopping the hung child took %s", d)
	}
	if err := runWithDeadline(exec.Command("true"), time.Minute); err != nil {
		t.Fatalf("a child that exits in time failed: %v", err)
	}
}
