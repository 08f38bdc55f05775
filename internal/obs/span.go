package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-tracing half of the telemetry substrate: spans
// with parent/child links threaded through context.Context. The clock is
// pluggable — the serving path uses wall-clock microseconds (WallClock),
// the simulator can hand in its virtual clock — and completed spans reuse
// the existing Tracer JSONL/Chrome encodings, so one viewer reads both.
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
// root did, assembled when the root ends. Spans[0] is always the root.
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
// clock. Out (optional) streams every completed span through the existing
// Tracer encodings; Sink (optional) receives whole per-request traces.
// Set Out/Sink before the first StartSpan; they are read concurrently after.
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

// SetOutput streams completed spans through t (JSONL or Chrome format).
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

	// Root-only fields: children from any goroutine append their completed
	// records here until the root ends.
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
// than bracketing a contiguous interval.
func (st *SpanTracer) RecordSpan(ctx context.Context, cat, name string, start, dur int64, attrs ...string) {
	if st == nil {
		return
	}
	parent := SpanFromContext(ctx)
	data := SpanData{
		SpanID: st.ids.Add(1),
		Cat:    cat,
		Name:   name,
		Start:  start,
		Dur:    dur,
		Attrs:  argMap(attrs),
	}
	if parent != nil {
		data.TraceID = parent.data.TraceID
		data.ParentID = parent.data.SpanID
		parent.root.collect(data)
	} else {
		data.TraceID = data.SpanID
	}
	st.emit(data)
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

// End completes the span and returns its duration in microseconds. Child
// spans fold into their root; a root span assembles the whole RequestTrace
// and hands it to the tracer's sink and output. End is idempotent-enough
// for telemetry: a second End on a root is ignored.
func (sp *Span) End() int64 {
	if sp == nil {
		return 0
	}
	sp.data.Dur = sp.st.now() - sp.data.Start
	if sp.root == sp {
		sp.mu.Lock()
		if sp.ended {
			sp.mu.Unlock()
			return sp.data.Dur
		}
		sp.ended = true
		spans := make([]SpanData, 0, len(sp.collected)+1)
		spans = append(spans, sp.data)
		spans = append(spans, sp.collected...)
		sp.mu.Unlock()
		for _, d := range spans {
			sp.st.emit(d)
		}
		if sp.st.sink != nil {
			sp.st.sink.RecordTrace(RequestTrace{Spans: spans})
		}
		return sp.data.Dur
	}
	sp.root.collect(sp.data)
	return sp.data.Dur
}

// collect appends a completed descendant's record to the root. A child
// ending after its root is dropped — the trace already shipped.
func (sp *Span) collect(d SpanData) {
	sp.mu.Lock()
	if !sp.ended {
		sp.collected = append(sp.collected, d)
	}
	sp.mu.Unlock()
}

// emit streams one completed span through the configured Tracer. Non-root
// spans wait for their root (see End), so a request's spans land
// contiguously.
func (st *SpanTracer) emit(d SpanData) {
	if st.out != nil {
		writeSpan(st.out, d)
	}
}

// writeSpan encodes one span record on t: one lane per trace, with the
// trace/span/parent IDs and the error mark as args beside the attributes, so
// the JSONL and Chrome forms keep the links. The streamed output and the
// flight recorder's dump both encode spans here. Args are keyed by name on
// the way out, so their order does not matter.
func writeSpan(t *Tracer, d SpanData) {
	args := make([]string, 0, 2*(len(d.Attrs)+4))
	args = append(args, "trace", formatUint(d.TraceID), "span", formatUint(d.SpanID))
	if d.ParentID != 0 {
		args = append(args, "parent", formatUint(d.ParentID))
	}
	if d.Err {
		args = append(args, "err", "true")
	}
	for k, v := range d.Attrs {
		args = append(args, k, v)
	}
	t.SpanOn(int(d.TraceID), d.Start, d.Dur, d.Cat, d.Name, args...)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }
