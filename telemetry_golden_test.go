package iotlan

import (
	"bytes"
	"encoding/json"
	"flag"
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
// The same study runs a second time traced, and its snapshot must be
// byte-identical: tracing is observational. The golden (and -update) holds
// the untraced run. The traced run's trace must have the shape checkTrace
// describes.
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
	shape := &traceShape{}
	tracer := obs.NewTracer(shape, obs.FormatJSONL)
	if traced := run(WithTrace(tracer)); !bytes.Equal(traced, got) {
		t.Fatal("registry snapshot differs with a tracer attached")
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	shape.check(t, tracer.Events(), "passive", "scans", "vuln", "apps")

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

// traceShape decodes a JSONL span trace as it is written. It keeps the
// study phase spans and, per parent, what its children cover, so a trace
// of ~200k spans checks in memory proportional to its phases.
type traceShape struct {
	buf      []byte
	spans    uint64
	phases   []obs.SpanData
	children map[uint64]*childCover
	err      error
}

// childCover is what the children of one parent span add up to. A phase
// is a trace root, so its trace ID is its span ID: offTrace counts children
// whose trace is not their parent's.
type childCover struct {
	n, offTrace int
	start, end  int64 // earliest start, latest end
	exampleName string
}

func (ts *traceShape) Write(p []byte) (int, error) {
	ts.buf = append(ts.buf, p...)
	for {
		i := bytes.IndexByte(ts.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		var d obs.SpanData
		if err := json.Unmarshal(ts.buf[:i], &d); err != nil && ts.err == nil {
			ts.err = err
		}
		ts.buf = ts.buf[i+1:]
		ts.add(d)
	}
}

func (ts *traceShape) add(d obs.SpanData) {
	ts.spans++
	if d.Cat == "study" {
		ts.phases = append(ts.phases, d)
		return
	}
	if ts.children == nil {
		ts.children = map[uint64]*childCover{}
	}
	c := ts.children[d.ParentID]
	if c == nil {
		c = &childCover{start: d.Start, end: d.Start + d.Dur, exampleName: d.Name}
		ts.children[d.ParentID] = c
	}
	c.n++
	if d.Start < c.start {
		c.start = d.Start
	}
	if end := d.Start + d.Dur; end > c.end {
		c.end = end
	}
	if d.TraceID != d.ParentID {
		c.offTrace++
	}
}

// check requires one root study span per phase, in order, and every other
// span to be a child of one of them, in its trace and inside its interval.
func (ts *traceShape) check(t *testing.T, written uint64, phases ...string) {
	t.Helper()
	if ts.err != nil {
		t.Fatalf("trace does not decode: %v", ts.err)
	}
	if ts.spans != written || len(ts.buf) != 0 {
		t.Fatalf("decoded %d spans (%d bytes left over), tracer wrote %d", ts.spans, len(ts.buf), written)
	}
	var names []string
	byID := map[uint64]obs.SpanData{}
	for _, p := range ts.phases {
		names = append(names, p.Name)
		byID[p.SpanID] = p
		if p.ParentID != 0 || p.TraceID != p.SpanID {
			t.Errorf("phase %s is not a trace root: %+v", p.Name, p)
		}
	}
	if strings.Join(names, ",") != strings.Join(phases, ",") {
		t.Fatalf("study spans %v, want one per phase %v", names, phases)
	}
	var children int
	for parent, c := range ts.children {
		p, ok := byID[parent]
		switch {
		case !ok:
			t.Errorf("%d spans (e.g. %s) have parent %d, which is no phase", c.n, c.exampleName, parent)
		case c.offTrace > 0:
			t.Errorf("%d children of phase %s are not in its trace", c.offTrace, p.Name)
		case c.start < p.Start || c.end > p.Start+p.Dur:
			t.Errorf("children of phase %s cover [%d, %d], outside its [%d, %d]",
				p.Name, c.start, c.end, p.Start, p.Start+p.Dur)
		}
		children += c.n
	}
	if children == 0 {
		t.Fatal("the trace holds no sim events")
	}
}
