package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// FlightRecorder is the postmortem half of request tracing: a bounded ring
// of the most recent completed request traces plus a pinned set of the
// slowest and the errored ones, so after a tail-latency incident or a 5xx
// burst the interesting traces are still in memory — no load replay needed.
// Dump renders everything as Chrome trace JSON (chrome://tracing, Perfetto).
//
// Recording is a short critical section over preallocated rings — cheap
// enough to sit on every request. A nil *FlightRecorder no-ops.
type FlightRecorder struct {
	total atomic.Uint64 // every trace ever offered

	mu      sync.Mutex
	recent  []RequestTrace // ring, zero Spans = empty slot
	next    int
	slow    []RequestTrace // up to pinCap slowest-by-root-duration
	errored []RequestTrace // ring of the most recent errored
	errNext int
	pinCap  int
}

// DefaultFlightRecent is the recent-ring size when the caller passes 0.
const DefaultFlightRecent = 256

// NewFlightRecorder builds a recorder holding recent completed traces
// (0 = DefaultFlightRecent) and up to pinned slowest plus pinned errored
// traces (0 = recent/8, minimum 8).
func NewFlightRecorder(recent, pinned int) *FlightRecorder {
	if recent <= 0 {
		recent = DefaultFlightRecent
	}
	if pinned <= 0 {
		pinned = recent / 8
		if pinned < 8 {
			pinned = 8
		}
	}
	return &FlightRecorder{
		recent:  make([]RequestTrace, recent),
		errored: make([]RequestTrace, pinned),
		pinCap:  pinned,
	}
}

// RecordTrace implements SpanSink: file the trace in the recent ring and,
// when it qualifies, pin it as slow or errored.
func (fr *FlightRecorder) RecordTrace(rt RequestTrace) {
	if fr == nil || len(rt.Spans) == 0 {
		return
	}
	fr.total.Add(1)
	root := rt.Root()
	fr.mu.Lock()
	fr.recent[fr.next] = rt
	fr.next = (fr.next + 1) % len(fr.recent)
	if root.Err {
		fr.errored[fr.errNext] = rt
		fr.errNext = (fr.errNext + 1) % len(fr.errored)
	} else if len(fr.slow) < fr.pinCap {
		fr.slow = append(fr.slow, rt)
	} else {
		// Replace the fastest pinned trace if this one outlasts it. pinCap
		// is small (default 8-32), so the linear scan stays cheap.
		minIdx, minDur := 0, fr.slow[0].Root().Dur
		for i := 1; i < len(fr.slow); i++ {
			if d := fr.slow[i].Root().Dur; d < minDur {
				minIdx, minDur = i, d
			}
		}
		if root.Dur > minDur {
			fr.slow[minIdx] = rt
		}
	}
	fr.mu.Unlock()
}

// Total reports how many traces were ever recorded (including those the
// ring has since overwritten).
func (fr *FlightRecorder) Total() uint64 {
	if fr == nil {
		return 0
	}
	return fr.total.Load()
}

// Traces returns every retained trace — recent ring plus pinned slow and
// errored sets — deduplicated by root span ID and sorted by root start time.
func (fr *FlightRecorder) Traces() []RequestTrace {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	all := make([]RequestTrace, 0, len(fr.recent)+len(fr.slow)+len(fr.errored))
	all = append(all, fr.recent...)
	all = append(all, fr.slow...)
	all = append(all, fr.errored...)
	fr.mu.Unlock()

	seen := make(map[uint64]bool, len(all))
	out := all[:0]
	for _, rt := range all {
		if len(rt.Spans) == 0 || seen[rt.Spans[0].SpanID] {
			continue
		}
		seen[rt.Spans[0].SpanID] = true
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Root(), out[j].Root()
		if ri.Start != rj.Start {
			return ri.Start < rj.Start
		}
		return ri.SpanID < rj.SpanID
	})
	return out
}

// Dump writes every retained trace as Chrome trace JSON, one tid per
// request so concurrent uploads render as separate lanes.
func (fr *FlightRecorder) Dump(w io.Writer) error {
	t := NewTracer(w, FormatChrome)
	for _, rt := range fr.Traces() {
		for _, d := range rt.Spans {
			writeSpan(t, d)
		}
	}
	return t.Close()
}
