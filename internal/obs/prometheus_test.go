package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// promParse runs the package's strict exposition parser (promparse.go) and
// fails the test on any violation. The parser is shared with iotload, which
// uses it to reject a malformed /metrics page after a load.
func promParse(t *testing.T, text string) []PromSample {
	t.Helper()
	samples, _, err := ParsePrometheus(text)
	if err != nil {
		t.Fatalf("exposition parse: %v\n%s", err, text)
	}
	return samples
}

func renderLabels(labels map[string]string) string {
	return promSeriesLabels(labels)
}

// ---- the actual tests ----

// TestWritePrometheusGolden pins the exposition output byte for byte:
// deterministic family and sample order, cumulative buckets, name
// sanitization, label escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_uploads", "kind", "capture").Add(3)
	r.Counter("serve_uploads", "kind", "inspector").Inc()
	r.Gauge("queue_depth").Set(-2)
	h := r.Histogram("stage_ms", []float64{1, 5}, "stage", "queue.wait")
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(10)
	r.Counter("weird.name", "label-x", `a\b"c`).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheusPrefixed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE queue_depth gauge
queue_depth -2
# TYPE serve_uploads counter
serve_uploads{kind="capture"} 3
serve_uploads{kind="inspector"} 1
# TYPE stage_ms histogram
stage_ms_bucket{le="1",stage="queue.wait"} 1
stage_ms_bucket{le="5",stage="queue.wait"} 2
stage_ms_bucket{le="+Inf",stage="queue.wait"} 3
stage_ms_sum{stage="queue.wait"} 13.5
stage_ms_count{stage="queue.wait"} 3
# TYPE weird_name counter
weird_name{label_x="a\\b\"c"} 1
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition output mismatch:\n--- got\n%s--- want\n%s", got, want)
	}

	// And the golden must survive the strict parser.
	samples := promParse(t, buf.String())
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
}

// TestWritePrometheusRoundTrip: a registry with every series shape (multi
// label sets, several histogram series under one family, hostile label
// values) round-trips through the strict parser with the right values.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	for _, stage := range []string{"queue.wait", "body.read", "pcap.decode", "analysis", "cache.lookup"} {
		h := r.Histogram("serve_stage_ms", []float64{0.1, 1, 10, 100}, "stage", stage)
		for i := 0; i < 7; i++ {
			h.Observe(float64(i) * 3.5)
		}
	}
	r.Counter("serve_responses", "code", "200").Add(41)
	r.Counter("serve_responses", "code", "429").Add(2)
	r.Gauge("serve_workers_busy").Set(3)
	r.Counter("hostile", "v", "quote\"back\\slash").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheusPrefixed(&buf, ""); err != nil {
		t.Fatal(err)
	}
	samples := promParse(t, buf.String())

	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Name+renderLabels(s.Labels)] = s.Value
	}
	if v := byKey[`serve_responses,code="200"`]; v != 41 {
		t.Fatalf("responses 200 = %v, want 41", v)
	}
	if v := byKey[`serve_workers_busy`]; v != 3 {
		t.Fatalf("workers busy = %v, want 3", v)
	}
	if v := byKey[`hostile,v="quote\"back\\slash"`]; v != 1 {
		t.Fatalf("hostile label round-trip failed: %v (have %v)", v, byKey)
	}
	for _, stage := range []string{"queue.wait", "analysis"} {
		if v := byKey[fmt.Sprintf(`serve_stage_ms_count,stage=%q`, stage)]; v != 7 {
			t.Fatalf("stage %s count = %v, want 7", stage, v)
		}
	}

	// Determinism: a second render is byte-identical.
	var again bytes.Buffer
	if err := r.WritePrometheusPrefixed(&again, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two renders of the same registry differ")
	}
}

// TestWritePrometheusPrefixed: a namespace prefix lands on every family
// except those already carrying it.
func TestWritePrometheusPrefixed(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events").Add(5)
	r.Counter("lab_frames").Add(2)
	var buf bytes.Buffer
	if err := r.WritePrometheusPrefixed(&buf, "lab"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lab_sim_events 5") {
		t.Fatalf("prefix not applied:\n%s", out)
	}
	if !strings.Contains(out, "lab_frames 2") || strings.Contains(out, "lab_lab_frames") {
		t.Fatalf("prefix double-applied:\n%s", out)
	}
	promParse(t, out)
}

// TestParsePrometheusRejects: the parser is strict, not a lax grep — each of
// these pages violates the format in a different way and must be refused.
func TestParsePrometheusRejects(t *testing.T) {
	bad := map[string]string{
		"no TYPE":           "orphan 1\n",
		"bad metric name":   "# TYPE 9bad counter\n9bad 1\n",
		"unquoted label":    "# TYPE a counter\na{x=y} 1\n",
		"bad escape":        "# TYPE a counter\na{x=\"\\q\"} 1\n",
		"duplicate series":  "# TYPE a counter\na 1\na 2\n",
		"bad value":         "# TYPE a counter\na one\n",
		"non-monotone hist": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"inf != count":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, page := range bad {
		if _, _, err := ParsePrometheus(page); err == nil {
			t.Errorf("%s: parser accepted invalid page:\n%s", name, page)
		}
	}
}

// BenchmarkWritePrometheus times one /metrics scrape of a registry shaped
// like iotserve's: eight stage histograms and the latency histogram on a
// 22-bound 1-2-5 layout, a few dozen labeled counters and the gauges, all
// populated, written to io.Discard.
func BenchmarkWritePrometheus(b *testing.B) {
	var bounds []float64
	for decade := 0.001; decade < 10000; decade *= 10 {
		bounds = append(bounds, decade, 2*decade, 5*decade)
	}
	bounds = append(bounds, 10000)
	r := NewRegistry()
	hists := []*Histogram{r.Histogram("serve_latency_ms", bounds)}
	for _, stage := range []string{"body.read", "pcap.decode", "inspector.decode", "analysis",
		"cache.lookup", "artifact.build", "wal.append", "unattributed"} {
		hists = append(hists, r.Histogram("serve_stage_ms", bounds, "stage", stage))
	}
	for i, h := range hists {
		for v := 0.001; v < 5000; v *= 1.7 {
			h.Observe(v * float64(i+1))
		}
	}
	for _, kind := range []string{"capture", "inspector"} {
		r.Counter("serve_uploads", "kind", kind).Add(1000)
		r.Counter("serve_jobs_done", "kind", kind).Add(1000)
		r.Counter("serve_jobs_cancelled", "kind", kind).Add(3)
	}
	for _, code := range []string{"200", "400", "404", "409", "413", "429", "500", "503"} {
		r.Counter("serve_responses", "code", code).Add(17)
	}
	for _, reason := range []string{"draining", "queue_full", "timeout", "oversized", "malformed", "wal"} {
		r.Counter("serve_upload_rejected", "reason", reason).Add(5)
	}
	for _, result := range []string{"hit", "miss"} {
		r.Counter("serve_cache", "result", result).Add(400)
		r.Counter("serve_refold", "result", result).Add(400)
		r.Counter("serve_selfcheck", "result", result).Add(2)
	}
	for _, name := range []string{"serve_upload_frames", "serve_cache_full", "serve_wal_appends",
		"serve_checkpoints", "serve_wal_replay_records", "serve_wal_replay_truncated"} {
		r.Counter(name).Add(99)
	}
	for _, name := range []string{"serve_shards", "serve_queue_depth", "serve_inflight_bytes"} {
		r.Gauge(name).Set(8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheusPrefixed(io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}
