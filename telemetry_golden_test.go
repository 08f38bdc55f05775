package iotlan

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"iotlan/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// telemetryGolden pins the simulator's whole metrics registry.
const telemetryGolden = "testdata/telemetry_subset_seed1.json"

// TestTelemetrySnapshotGolden runs every simulator phase (passive capture,
// scripted interactions, port and vulnerability scans, app sessions) on the
// subset lab at seed 1 and compares the registry snapshot with the committed
// golden. Artifacts can stay byte-identical while a receive-path change
// drops or adds packets the analyses never look at; the frame, event, TCP
// segment and device-message counters cannot. Regenerate with -update only
// for a change that is meant to alter simulated traffic.
//
// The same study runs a second time with a virtual-time tracer attached,
// and its snapshot must be byte-identical: tracing is observational. The
// golden (and -update) holds the untraced run.
func TestTelemetrySnapshotGolden(t *testing.T) {
	run := func(opts ...Option) []byte {
		s := New(1, append([]Option{
			WithLabProfiles(residentProfiles()),
			WithIdleDuration(10 * time.Minute),
			WithInteractions(24),
			WithApps(6),
		}, opts...)...)
		s.RunPassive()
		s.RunVulnScans()
		s.RunApps()
		return s.Lab.Telemetry().Registry.Snapshot()
	}
	got := run()
	tracer := obs.NewTracer(io.Discard, obs.FormatChrome)
	if traced := run(WithTrace(tracer)); !bytes.Equal(traced, got) {
		t.Fatal("registry snapshot differs with a tracer attached")
	}
	if tracer.Events() == 0 {
		t.Fatal("the attached tracer recorded no events")
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(telemetryGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(telemetryGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(telemetryGolden)
	if err != nil {
		t.Fatal(err)
	}
	var g, w struct{ Counters map[string]uint64 }
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lan_frames_delivered", "sim_events_processed", "stack_tcp_segments", "device_messages"} {
		var total uint64
		for k, v := range w.Counters {
			if k == name || strings.HasPrefix(k, name+"{") {
				total += v
			}
		}
		if total == 0 {
			t.Fatalf("golden has no %s: the run exercised nothing", name)
		}
	}
	if bytes.Equal(got, want) {
		return
	}
	keys := map[string]bool{}
	for k := range g.Counters {
		keys[k] = true
	}
	for k := range w.Counters {
		keys[k] = true
	}
	var diff []string
	for k := range keys {
		if g.Counters[k] != w.Counters[k] {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	for _, k := range diff {
		t.Errorf("counter %s = %d, golden %d", k, g.Counters[k], w.Counters[k])
	}
	t.Fatalf("registry snapshot differs from %s (%d counters differ; gauges or histograms if 0)",
		telemetryGolden, len(diff))
}
