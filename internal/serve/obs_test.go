package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/obs"
)

// TestUploadSpansReachFlightRecorder: every upload leaves a root `upload`
// trace with per-stage children in the flight recorder, and the
// /debug/flightrecorder endpoint dumps them as valid Chrome trace JSON.
func TestUploadSpansReachFlightRecorder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ds := inspector.Generate(11, 2)
	h := ds.Households[0]
	if w := do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), capturePCAP(t, h)); w.Code != http.StatusOK {
		t.Fatalf("capture upload: %d", w.Code)
	}
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households...)); w.Code != http.StatusOK {
		t.Fatalf("wire upload: %d", w.Code)
	}
	if w := do(s, "GET", "/v1/artifacts/table2", nil); w.Code != http.StatusOK {
		t.Fatalf("artifact: %d", w.Code)
	}

	if got := s.FlightRecorder().Total(); got < 2 {
		t.Fatalf("flight recorder holds %d traces, want >= 2", got)
	}
	stageSeen := map[string]bool{}
	for _, rt := range s.FlightRecorder().Traces() {
		root := rt.Root()
		if root.Name == "upload" && len(rt.Spans) < 3 {
			t.Fatalf("upload trace has only %d spans: %+v", len(rt.Spans), rt.Spans)
		}
		for _, sp := range rt.Spans {
			stageSeen[sp.Name] = true
			if sp.ParentID != 0 && sp.TraceID != root.TraceID {
				t.Fatalf("span %s not linked to its root: %+v", sp.Name, sp)
			}
		}
	}
	for _, want := range []string{"upload", "body.read", "pcap.decode",
		"inspector.decode", "analysis", "cache.lookup", "artifact", "artifact.build"} {
		if !stageSeen[want] {
			t.Fatalf("no %q span recorded; saw %v", want, stageSeen)
		}
	}

	w := do(s, "GET", "/debug/flightrecorder", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/flightrecorder: %d", w.Code)
	}
	var events []struct {
		Name string            `json:"name"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &events); err != nil {
		t.Fatalf("flight recorder dump not valid JSON: %v\n%s", err, w.Body.String())
	}
	var uploads int
	for _, ev := range events {
		if ev.Name == "upload" {
			uploads++
			if ev.Args["status"] != "200" {
				t.Fatalf("upload span missing status attr: %+v", ev)
			}
		}
	}
	if uploads < 2 {
		t.Fatalf("dump has %d upload spans, want >= 2", uploads)
	}
}

// stageCount reads the observation count of one stage's serve_stage_ms
// histogram from the server registry's snapshot.
func stageCount(t *testing.T, s *Server, stage string) uint64 {
	t.Helper()
	var snap struct {
		Histograms map[string]struct{ Count uint64 } `json:"histograms"`
	}
	if err := json.Unmarshal(s.reg.Snapshot(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Histograms[obs.Key("serve_stage_ms", "stage", stage)].Count
}

// TestStageHistogramsPopulated: each pipeline stage feeds its own
// serve_stage_ms series, so /metrics can answer "where did the p99 go".
func TestStageHistogramsPopulated(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ds := inspector.Generate(12, 2)
	h := ds.Households[0]
	body := capturePCAP(t, h)
	for i := 0; i < 2; i++ { // second upload hits the cache
		if w := do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), body); w.Code != http.StatusOK {
			t.Fatalf("capture upload %d: %d", i, w.Code)
		}
	}
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households...)); w.Code != http.StatusOK {
		t.Fatalf("wire upload: %d", w.Code)
	}
	for _, stage := range []string{"body.read", "pcap.decode", "inspector.decode", "analysis", "cache.lookup"} {
		if n := stageCount(t, s, stage); n == 0 {
			t.Fatalf("stage %q histogram empty", stage)
		}
	}
	if s.mQueueDepth.Value() != 0 {
		t.Fatalf("admitted uploads gauge %d at rest, want 0", s.mQueueDepth.Value())
	}
	if s.mInflight.Value() != 0 {
		t.Fatalf("in-flight bytes gauge %d at rest, want 0", s.mInflight.Value())
	}
}

// slowBody blocks at least a millisecond in every Read, so time blocked in
// Read dwarfs the microsecond rounding between a span and its histogram.
type slowBody struct{ r io.Reader }

func (b slowBody) Read(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return b.r.Read(p)
}

// TestDecodeSpansMatchStageHistograms: the body.read and decode spans in
// the flight recorder carry the durations their serve_stage_ms histograms
// observe, so a trace and /metrics attribute an upload's time the same
// way. Decode excludes the time blocked in Read; spans round down to whole
// microseconds, hence one microsecond of slack per sample.
func TestDecodeSpansMatchStageHistograms(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ds := inspector.Generate(14, 2)
	h := ds.Households[0]
	for path, body := range map[string][]byte{
		fmt.Sprintf("/v1/households/%s/capture", h.ID): capturePCAP(t, h),
		"/v1/ingest/inspector":                         wireBody(t, ds.Households...),
	} {
		w := httptest.NewRecorder()
		s.Mux().ServeHTTP(w, httptest.NewRequest("POST", path, slowBody{bytes.NewReader(body)}))
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d", path, w.Code)
		}
	}

	spanUS := map[string]int64{}
	for _, rt := range s.FlightRecorder().Traces() {
		for _, sp := range rt.Spans {
			spanUS[sp.Name] += sp.Dur
		}
	}
	samples, _, err := obs.ParsePrometheus(do(s, "GET", "/metrics", nil).Body.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"body.read", "pcap.decode", "inspector.decode"} {
		var sumMS, count float64
		for _, smp := range samples {
			if smp.Labels["stage"] != stage {
				continue
			}
			switch smp.Name {
			case "serve_stage_ms_sum":
				sumMS = smp.Value
			case "serve_stage_ms_count":
				count = smp.Value
			}
		}
		if count == 0 {
			t.Fatalf("stage %q: no histogram samples", stage)
		}
		if diff := math.Abs(1000*sumMS - float64(spanUS[stage])); diff > count {
			t.Errorf("stage %q: spans sum to %d µs, histogram to %.3f µs over %.0f samples",
				stage, spanUS[stage], 1000*sumMS, count)
		}
	}
}

// TestTracingDisabled: tracing cannot be disabled. A server built from a
// zero Config has a flight recorder, /debug/flightrecorder serves the
// upload's trace, and the stage histograms and /metrics are fed from it.
func TestTracingDisabled(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	h := inspector.Generate(13, 1).Households[0]
	if w := do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), capturePCAP(t, h)); w.Code != http.StatusOK {
		t.Fatalf("upload: %d", w.Code)
	}
	if s.FlightRecorder() == nil || s.FlightRecorder().Total() != 1 {
		t.Fatal("zero Config server did not record the upload's trace")
	}
	w := do(s, "GET", "/debug/flightrecorder", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"name":"upload"`) {
		t.Fatalf("/debug/flightrecorder: %d %s", w.Code, w.Body.String())
	}
	if stageCount(t, s, "analysis") == 0 {
		t.Fatal("stage histograms not fed from the trace")
	}
	m := do(s, "GET", "/metrics", nil)
	if !strings.Contains(m.Body.String(), `serve_stage_ms_count{stage="analysis"} 1`) {
		t.Fatalf("/metrics lost stage histograms:\n%s", m.Body.String())
	}
}

// TestUploadTraceNests: an upload's trace is a tree of intervals. After a
// durable wire upload and a capture upload, every span lies within its
// parent, the root's direct children do not overlap (body.read and the
// decode span tile their loop), and each wal.append sits under analysis.
// The unattributed stage histogram holds what the children leave of each
// root.
func TestUploadTraceNests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ds := inspector.Generate(16, 3)
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households...)); w.Code != http.StatusOK {
		t.Fatalf("wire upload: %d", w.Code)
	}
	h := ds.Households[0]
	if w := do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), capturePCAP(t, h)); w.Code != http.StatusOK {
		t.Fatalf("capture upload: %d", w.Code)
	}

	traces := s.FlightRecorder().Traces()
	if len(traces) != 2 {
		t.Fatalf("flight recorder holds %d traces, want 2", len(traces))
	}
	var residualUS int64
	walSpans := 0
	for _, rt := range traces {
		root := rt.Root()
		byID := map[uint64]obs.SpanData{}
		for _, sp := range rt.Spans {
			byID[sp.SpanID] = sp
		}
		var children []obs.SpanData
		for _, sp := range rt.Spans[1:] {
			parent, ok := byID[sp.ParentID]
			if !ok {
				t.Fatalf("span %s has no parent in its trace: %+v", sp.Name, sp)
			}
			if sp.Start < parent.Start || sp.Start+sp.Dur > parent.Start+parent.Dur {
				t.Errorf("span %s [%d,+%d] outside its parent %s [%d,+%d]",
					sp.Name, sp.Start, sp.Dur, parent.Name, parent.Start, parent.Dur)
			}
			if sp.Name == "wal.append" {
				walSpans++
				if parent.Name != "analysis" {
					t.Errorf("wal.append's parent is %s, want analysis", parent.Name)
				}
			}
			if sp.ParentID == root.SpanID {
				children = append(children, sp)
			}
		}
		sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
		childUS := int64(0)
		for i, c := range children {
			childUS += c.Dur
			if i > 0 && c.Start < children[i-1].Start+children[i-1].Dur {
				t.Errorf("root children %s and %s overlap: %+v, %+v", children[i-1].Name, c.Name, children[i-1], c)
			}
		}
		residualUS += root.Dur - childUS
	}
	if walSpans == 0 {
		t.Fatal("durable wire upload recorded no wal.append span")
	}

	samples, _, err := obs.ParsePrometheus(do(s, "GET", "/metrics", nil).Body.String())
	if err != nil {
		t.Fatal(err)
	}
	var sumMS, count float64
	for _, smp := range samples {
		if smp.Labels["stage"] != "unattributed" {
			continue
		}
		switch smp.Name {
		case "serve_stage_ms_sum":
			sumMS = smp.Value
		case "serve_stage_ms_count":
			count = smp.Value
		}
	}
	if count != 2 || math.Abs(1000*sumMS-float64(residualUS)) > 0.5 {
		t.Fatalf("unattributed histogram: %.0f samples summing to %.3f µs, want 2 summing to %d µs",
			count, 1000*sumMS, residualUS)
	}
}

// TestStructuredRequestLog: with a Logger configured, every upload leaves
// exactly one structured line carrying household, stage timings, status,
// cache verdict, and uploads admitted on arrival — in both slog formats.
func TestStructuredRequestLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	syncWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(syncWriter, nil)),
	})
	ds := inspector.Generate(14, 3)
	h := ds.Households[0]
	body := capturePCAP(t, h)
	for i := 0; i < 2; i++ {
		if w := do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), body); w.Code != http.StatusOK {
			t.Fatalf("upload %d: %d", i, w.Code)
		}
	}
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households...)); w.Code != http.StatusOK {
		t.Fatalf("wire batch: %d", w.Code)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("log lines %d, want 3 (one per upload):\n%s", len(lines), strings.Join(lines, "\n"))
	}
	type logLine struct {
		Msg             string  `json:"msg"`
		Kind            string  `json:"kind"`
		Household       string  `json:"household"`
		Status          int     `json:"status"`
		Bytes           int64   `json:"bytes"`
		TotalMS         float64 `json:"total_ms"`
		AnalysisMS      float64 `json:"analysis_ms"`
		Cache           string  `json:"cache"`
		QueueDepthAdmit int     `json:"queue_depth_admit"`
	}
	var first, second logLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Msg != "upload" || first.Kind != "capture" || first.Household != h.ID ||
		first.Status != 200 || first.Bytes == 0 || first.TotalMS <= 0 || first.Cache != "miss" {
		t.Fatalf("first log line wrong: %+v", first)
	}
	if second.Cache != "hit" {
		t.Fatalf("second upload logged cache=%q, want hit", second.Cache)
	}
	// A wire batch names no household in its path: its line counts the
	// households the batch carried instead of logging an empty one.
	var batch map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &batch); err != nil {
		t.Fatal(err)
	}
	if _, ok := batch["household"]; ok || batch["kind"] != "inspector" || batch["households"] != float64(len(ds.Households)) {
		t.Fatalf("wire batch log line = %s, want kind=inspector, households=%d and no household", lines[2], len(ds.Households))
	}
	if first.Household == "" || strings.Contains(lines[0], `"households"`) {
		t.Fatalf("capture log line = %s, want its household and no households count", lines[0])
	}
}

// TestResponsesCounter: the v1 surface counts every response by status.
func TestResponsesCounter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := inspector.Generate(15, 1).Households[0]
	do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), capturePCAP(t, h)) // 200
	do(s, "POST", "/v1/households/hx/capture", []byte("garbage"))                    // 400
	do(s, "GET", "/v1/households/ghost/report", nil)                                 // 404
	for code, want := range map[string]uint64{"200": 1, "400": 1, "404": 1} {
		if got := s.reg.CounterValue(obs.Key("serve_responses", "code", code)); got != want {
			t.Fatalf("serve_responses{code=%s} = %d, want %d", code, got, want)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
