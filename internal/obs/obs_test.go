package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestKeyLabelOrderCanonical(t *testing.T) {
	a := Key("m", "proto", "mdns", "dir", "out")
	b := Key("m", "dir", "out", "proto", "mdns")
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if a != "m{dir=out,proto=mdns}" {
		t.Fatalf("unexpected key rendering: %q", a)
	}
	if Key("bare") != "bare" {
		t.Fatalf("unlabeled key gained braces: %q", Key("bare"))
	}
}

func TestRegistryDedupsSeries(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("frames", "ethertype", "ipv4")
	c2 := r.Counter("frames", "ethertype", "ipv4")
	if c1 != c2 {
		t.Fatal("same series returned distinct counters")
	}
	c1.Inc()
	c2.Add(2)
	if got := c1.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.SeriesCount() != 1 {
		t.Fatalf("series count %d, want 1", r.SeriesCount())
	}
}

func TestRegistryTotalSumsLabelSets(t *testing.T) {
	r := NewRegistry()
	r.Counter("drops", "reason", "undecodable").Add(2)
	r.Counter("drops", "reason", "unknown-unicast").Add(3)
	r.Counter("dropsother").Add(100) // different name, must not count
	if got := r.Total("drops"); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in different orders; keys must come out identically.
		r.Counter("b", "k", "2").Add(7)
		r.Counter("a").Add(1)
		r.Gauge("depth").Set(42)
		h := r.Histogram("lat", []float64{1, 10, 100})
		h.Observe(0.5)
		h.Observe(55)
		h.Observe(1e6)
		return r
	}
	r2 := NewRegistry()
	r2.Gauge("depth").Set(42)
	h := r2.Histogram("lat", []float64{100, 10, 1}) // unsorted bounds
	h.Observe(0.5)
	h.Observe(55)
	h.Observe(1e6)
	r2.Counter("a").Add(1)
	r2.Counter("b", "k", "2").Add(7)

	s1, s2 := build().Snapshot(), r2.Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", s1, s2)
	}
	var parsed struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count   uint64            `json:"count"`
			Buckets map[string]uint64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(s1, &parsed); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if parsed.Counters["b{k=2}"] != 7 {
		t.Fatalf("labeled counter missing: %v", parsed.Counters)
	}
	hist := parsed.Histograms["lat"]
	if hist.Count != 3 || hist.Buckets["le=+Inf"] != 1 || hist.Buckets["le=1"] != 1 {
		t.Fatalf("histogram buckets wrong: %+v", hist)
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, FormatJSONL)
	tr.Event(1500, "lan", "deliver", "ethertype", "ipv4")
	tr.SpanOn(0, 2000, 300, "tcp", "handshake")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var ev TraceEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.TS != 1500 || ev.Cat != "lan" || ev.Args["ethertype"] != "ipv4" {
		t.Fatalf("bad event: %+v", ev)
	}
	if tr.Events() != 2 {
		t.Fatalf("Events() = %d, want 2", tr.Events())
	}
}

func TestTracerChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, FormatChrome)
	tr.Event(10, "sim", "dispatch")
	tr.SpanOn(0, 20, 5, "study", "passive")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("chrome trace has %d events, want 2", len(events))
	}
	if events[0]["ph"] != "i" || events[1]["ph"] != "X" {
		t.Fatalf("phases wrong: %v / %v", events[0]["ph"], events[1]["ph"])
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Event(1, "sim", "dispatch")
	tr.SpanOn(0, 1, 1, "sim", "run")
	if tr.Events() != 0 || tr.Close() != nil {
		t.Fatal("nil tracer misbehaved")
	}
}

func TestProfilerAggregatesCalls(t *testing.T) {
	p := NewProfiler()
	p.Add("passive", 100*time.Millisecond, 1000, 45*time.Minute)
	p.Add("scans", 50*time.Millisecond, 200, 10*time.Minute)
	p.Add("passive", 10*time.Millisecond, 0, 0) // idempotent re-entry
	phases := p.Phases()
	if len(phases) != 2 {
		t.Fatalf("%d phases, want 2", len(phases))
	}
	if phases[0].Name != "passive" || phases[0].Calls != 2 || phases[0].Events != 1000 {
		t.Fatalf("passive stats wrong: %+v", phases[0])
	}
	if phases[0].WallMS != 110 {
		t.Fatalf("wall aggregation wrong: %v", phases[0].WallMS)
	}
	var parsed []PhaseStat
	if err := json.Unmarshal(p.JSON(), &parsed); err != nil {
		t.Fatalf("profile JSON invalid: %v", err)
	}
}
