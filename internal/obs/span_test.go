package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a hand-cranked span clock.
type fakeClock struct{ now int64 }

func (c *fakeClock) fn() func() int64 { return func() int64 { return c.now } }

// memSink captures completed request traces.
type memSink struct {
	mu     sync.Mutex
	traces []RequestTrace
}

func (s *memSink) RecordTrace(rt RequestTrace) {
	s.mu.Lock()
	s.traces = append(s.traces, rt)
	s.mu.Unlock()
}

func (s *memSink) all() []RequestTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RequestTrace(nil), s.traces...)
}

// TestSpanParentChildLinks: spans started from a context carrying a parent
// link into one trace; the root's End assembles root-first RequestTrace
// with correct trace/parent IDs and durations on the tracer's clock.
func TestSpanParentChildLinks(t *testing.T) {
	clk := &fakeClock{}
	st := NewSpanTracer(clk.fn())
	sink := &memSink{}
	st.SetSink(sink)

	ctx, root := st.StartSpan(context.Background(), "serve", "upload", "household", "h1")
	clk.now = 10
	cctx, child := st.StartSpan(ctx, "serve", "queue.wait")
	clk.now = 25
	if d := child.End(); d != 15 {
		t.Fatalf("child duration %d, want 15", d)
	}
	// An accumulated stage recorded with explicit times links to the span
	// still on cctx (the ended child) — use the root ctx for root-parented.
	st.RecordSpan(ctx, "serve", "body.read", 30, 7, "bytes", "42")
	_ = cctx
	clk.now = 100
	if d := root.End(); d != 100 {
		t.Fatalf("root duration %d, want 100", d)
	}

	traces := sink.all()
	if len(traces) != 1 {
		t.Fatalf("sink got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	rt := spans[0]
	if rt.Name != "upload" || rt.ParentID != 0 || rt.Attrs["household"] != "h1" {
		t.Fatalf("root span wrong: %+v", rt)
	}
	for _, sp := range spans[1:] {
		if sp.TraceID != rt.TraceID {
			t.Fatalf("span %s trace %d, want root's %d", sp.Name, sp.TraceID, rt.TraceID)
		}
		if sp.ParentID != rt.SpanID {
			t.Fatalf("span %s parent %d, want root %d", sp.Name, sp.ParentID, rt.SpanID)
		}
	}
	if spans[2].Name != "body.read" || spans[2].Start != 30 || spans[2].Dur != 7 {
		t.Fatalf("recorded span wrong: %+v", spans[2])
	}
}

// TestSpanTracerOutput: each span is written through the Tracer encodings
// when it ends — JSONL one SpanData per line and a well-formed Chrome
// array — with trace/span/parent links kept.
func TestSpanTracerOutput(t *testing.T) {
	runTrace := func(format TraceFormat) *bytes.Buffer {
		var buf bytes.Buffer
		clk := &fakeClock{}
		st := NewSpanTracer(clk.fn())
		tr := NewTracer(&buf, format)
		st.SetOutput(tr)
		ctx, root := st.StartSpan(context.Background(), "serve", "upload")
		clk.now = 5
		_, child := st.StartSpan(ctx, "serve", "analysis")
		clk.now = 9
		child.End()
		clk.now = 12
		root.End()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	jsonl := runTrace(FormatJSONL)
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines %d, want 2:\n%s", len(lines), jsonl)
	}
	byName := map[string]SpanData{}
	for _, line := range lines {
		var d SpanData
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatal(err)
		}
		byName[d.Name] = d
	}
	root, child := byName["upload"], byName["analysis"]
	if root.SpanID == 0 || root.TraceID != root.SpanID || root.ParentID != 0 || root.Dur != 12 {
		t.Fatalf("root span wrong: %+v", root)
	}
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID || child.Start != 5 || child.Dur != 4 {
		t.Fatalf("child span wrong: %+v", child)
	}

	chrome := runTrace(FormatChrome)
	var arr []map[string]interface{}
	if err := json.Unmarshal(chrome.Bytes(), &arr); err != nil {
		t.Fatalf("Chrome output not a JSON array: %v\n%s", err, chrome)
	}
	if len(arr) != 2 {
		t.Fatalf("Chrome events %d, want 2", len(arr))
	}
}

// TestSpanNilSafety: a nil tracer and nil spans no-op everywhere, which is
// how tracing-off is spelled — no flag checks at instrumentation sites.
func TestSpanNilSafety(t *testing.T) {
	var st *SpanTracer
	ctx, sp := st.StartSpan(context.Background(), "serve", "upload")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("nil tracer installed %v on ctx", got)
	}
	sp.SetAttr("k", "v")
	sp.Fail()
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %d", d)
	}
	st.RecordSpan(ctx, "serve", "x", 0, 1)
	if st.Now() != 0 {
		t.Fatal("nil tracer Now != 0")
	}
	// StartSpan must tolerate a nil context too (defensive: job contexts).
	if c, _ := NewSpanTracer(WallClock).StartSpan(nil, "serve", "x"); c == nil { //nolint:staticcheck
		t.Fatal("StartSpan(nil ctx) returned nil ctx")
	}
}

// TestSpanLateChildDropped: a child ending after its root does not corrupt
// the already-shipped trace and does not panic.
func TestSpanLateChildDropped(t *testing.T) {
	clk := &fakeClock{}
	st := NewSpanTracer(clk.fn())
	sink := &memSink{}
	st.SetSink(sink)
	ctx, root := st.StartSpan(context.Background(), "serve", "upload")
	_, child := st.StartSpan(ctx, "serve", "slow.stage")
	root.End()
	child.End() // late: trace already delivered
	traces := sink.all()
	if len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("late child leaked into trace: %+v", traces)
	}
}

// TestConcurrentSpanEmission: many goroutines build multi-span traces
// against one tracer + flight recorder simultaneously; every trace arrives
// intact (exercised under -race in CI).
func TestConcurrentSpanEmission(t *testing.T) {
	st := NewSpanTracer(WallClock)
	fr := NewFlightRecorder(64, 8)
	st.SetSink(fr)
	var buf bytes.Buffer
	st.SetOutput(NewTracer(&buf, FormatJSONL))

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, root := st.StartSpan(context.Background(), "serve", "upload")
				_, c1 := st.StartSpan(ctx, "serve", "queue.wait")
				c1.End()
				_, c2 := st.StartSpan(ctx, "serve", "analysis")
				c2.End()
				st.RecordSpan(ctx, "serve", "body.read", st.Now(), 1)
				root.End()
			}
		}()
	}
	wg.Wait()

	if got := fr.Total(); got != goroutines*perG {
		t.Fatalf("flight recorder total %d, want %d", got, goroutines*perG)
	}
	for _, rt := range fr.Traces() {
		if len(rt.Spans) != 4 {
			t.Fatalf("trace has %d spans, want 4: %+v", len(rt.Spans), rt.Spans)
		}
		if rt.Root().Name != "upload" {
			t.Fatalf("trace root %q, want upload", rt.Root().Name)
		}
	}
}

// TestSpanWrittenOnce: with an output set, every span is written exactly
// once, when it ends: a RecordSpan child of an open root too, whether or
// not a sink collects the trace.
func TestSpanWrittenOnce(t *testing.T) {
	for _, withSink := range []bool{false, true} {
		var buf bytes.Buffer
		clk := &fakeClock{}
		st := NewSpanTracer(clk.fn())
		tr := NewTracer(&buf, FormatJSONL)
		st.SetOutput(tr)
		sink := &memSink{}
		if withSink {
			st.SetSink(sink)
		}
		ctx, root := st.StartSpan(context.Background(), "serve", "upload")
		st.RecordSpan(ctx, "serve", "body.read", 0, 3)
		_, child := st.StartSpan(ctx, "serve", "analysis")
		clk.now = 5
		child.End()
		clk.now = 9
		root.End()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		written := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			written[rec.Name]++
		}
		for _, name := range []string{"upload", "body.read", "analysis"} {
			if written[name] != 1 {
				t.Errorf("sink=%v: span %s written %d times, want 1", withSink, name, written[name])
			}
		}
		if withSink {
			if traces := sink.all(); len(traces) != 1 || len(traces[0].Spans) != 3 {
				t.Errorf("sink got %+v, want one trace of 3 spans", traces)
			}
		}
	}
}
