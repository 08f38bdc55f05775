package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are the one trace record: parent/child links threaded through
// context.Context, each span written once, when it ends, through a Tracer's
// JSONL or Chrome encoding. The clock is pluggable — the serving path uses
// wall-clock microseconds (WallClock), the simulator its virtual clock, so
// a sim trace holds no wall time.
//
// Everything here is observational and nil-safe: a nil *SpanTracer or nil
// *Span turns every call into a no-op, which is how "tracing disabled"
// is spelled. Instrumented code never branches on a tracing flag.

// SpanData is one span's completed record. IDs are process-local: TraceID
// groups every span of one request, ParentID is 0 for roots.
type SpanData struct {
	TraceID  uint64            `json:"trace"`
	SpanID   uint64            `json:"span"`
	ParentID uint64            `json:"parent,omitempty"`
	Cat      string            `json:"cat"`
	Name     string            `json:"name"`
	Start    int64             `json:"ts"`  // microseconds on the tracer's clock
	Dur      int64             `json:"dur"` // microseconds
	Attrs    map[string]string `json:"attrs,omitempty"`
	Err      bool              `json:"err,omitempty"`
}

// RequestTrace is one root span plus every descendant that ended before the
// root did, assembled for the sink when the root ends. Spans[0] is always
// the root.
type RequestTrace struct {
	Spans []SpanData
}

// Root returns the trace's root span record.
func (rt *RequestTrace) Root() *SpanData { return &rt.Spans[0] }

// SpanSink receives each completed request trace (e.g. the FlightRecorder).
// Implementations must be safe for concurrent calls.
type SpanSink interface {
	RecordTrace(rt RequestTrace)
}

// SpanTracer mints parent/child-linked spans on an arbitrary microsecond
// clock. The output (optional) gets every span once, when it ends; the
// sink (optional) receives whole traces, so only with a sink set does a
// root keep its children until it ends. Set both before the first
// StartSpan; they are read concurrently after.
type SpanTracer struct {
	now  func() int64
	out  *Tracer
	sink SpanSink
	ids  atomic.Uint64
}

// NewSpanTracer builds a tracer on the given microsecond clock.
func NewSpanTracer(now func() int64) *SpanTracer {
	return &SpanTracer{now: now}
}

// SetOutput writes each span through t (JSONL or Chrome format) when it
// ends.
func (st *SpanTracer) SetOutput(t *Tracer) { st.out = t }

// SetSink delivers completed request traces to sink.
func (st *SpanTracer) SetSink(sink SpanSink) { st.sink = sink }

// Now reads the tracer's clock (0 from a nil tracer).
func (st *SpanTracer) Now() int64 {
	if st == nil {
		return 0
	}
	return st.now()
}

// processEpoch anchors WallClock so span timestamps stay small and
// monotonic (time.Since uses the monotonic reading).
var processEpoch = time.Now()

// WallClock is the serving path's clock: wall microseconds since process
// start, monotonic.
func WallClock() int64 { return int64(time.Since(processEpoch) / time.Microsecond) }

// Span is one in-flight operation. The zero of usefulness: a nil *Span
// no-ops every method, so callers never guard call sites.
type Span struct {
	st   *SpanTracer
	root *Span // the trace root; self for root spans
	data SpanData

	// Root-only fields: with a sink set, children from any goroutine append
	// their completed records here until the root ends.
	mu        sync.Mutex
	collected []SpanData
	ended     bool
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan opens a span as a child of whatever span ctx carries (a new
// trace root if none) and returns ctx with the new span installed. attrs
// alternate key, value.
func (st *SpanTracer) StartSpan(ctx context.Context, cat, name string, attrs ...string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if st == nil {
		return ctx, nil
	}
	parent := SpanFromContext(ctx)
	sp := &Span{
		st: st,
		data: SpanData{
			SpanID: st.ids.Add(1),
			Cat:    cat,
			Name:   name,
			Start:  st.now(),
			Attrs:  argMap(attrs),
		},
	}
	if parent != nil {
		sp.root = parent.root
		sp.data.TraceID = parent.data.TraceID
		sp.data.ParentID = parent.data.SpanID
	} else {
		sp.root = sp
		sp.data.TraceID = sp.data.SpanID
	}
	return ContextWithSpan(ctx, sp), sp
}

// RecordSpan records an already-completed child span with explicit start
// and duration (microseconds) — for stages whose cost accumulates across an
// interleaved loop (e.g. body reads woven through record decoding) rather
// than bracketing a contiguous interval, and for the simulator's
// zero-duration events.
func (st *SpanTracer) RecordSpan(ctx context.Context, cat, name string, start, dur int64, attrs ...string) {
	if st == nil {
		return
	}
	data := SpanData{
		SpanID: st.ids.Add(1),
		Cat:    cat,
		Name:   name,
		Start:  start,
		Dur:    dur,
		Attrs:  argMap(attrs),
	}
	parent := SpanFromContext(ctx)
	if parent == nil {
		data.TraceID = data.SpanID
		st.out.write(data)
		return
	}
	data.TraceID = parent.data.TraceID
	data.ParentID = parent.data.SpanID
	st.finish(parent.root, data)
}

func argMap(args []string) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		m[args[i]] = args[i+1]
	}
	return m
}

// SetAttr attaches or replaces one attribute. Not safe to race with End on
// the same span (spans are owned by one goroutine at a time by design).
func (sp *Span) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	if sp.data.Attrs == nil {
		sp.data.Attrs = make(map[string]string, 4)
	}
	sp.data.Attrs[k] = v
}

// Fail marks the span (and, for roots, the whole trace) as errored — the
// flight recorder pins errored traces.
func (sp *Span) Fail() {
	if sp == nil {
		return
	}
	sp.data.Err = true
}

// End completes the span, writes it, and returns its duration in
// microseconds. A root span hands the sink its whole RequestTrace. End is
// idempotent-enough for telemetry: a second End on a root is ignored.
func (sp *Span) End() int64 {
	if sp == nil {
		return 0
	}
	sp.data.Dur = sp.st.now() - sp.data.Start
	if sp.root != sp {
		sp.st.finish(sp.root, sp.data)
		return sp.data.Dur
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return sp.data.Dur
	}
	sp.ended = true
	collected := sp.collected
	sp.collected = nil
	sp.mu.Unlock()
	sp.st.out.write(sp.data)
	if sp.st.sink != nil {
		spans := make([]SpanData, 0, len(collected)+1)
		spans = append(spans, sp.data)
		spans = append(spans, collected...)
		sp.st.sink.RecordTrace(RequestTrace{Spans: spans})
	}
	return sp.data.Dur
}

// finish writes a completed descendant of root and, when a sink wants the
// whole trace, files it with the root. A descendant ending after its root
// is written but misses the trace, which already shipped.
func (st *SpanTracer) finish(root *Span, d SpanData) {
	st.out.write(d)
	if st.sink == nil {
		return
	}
	root.mu.Lock()
	if !root.ended {
		root.collected = append(root.collected, d)
	}
	root.mu.Unlock()
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }
