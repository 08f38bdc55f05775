package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
)

// TraceFormat selects the tracer's on-disk encoding.
type TraceFormat int

const (
	// FormatJSONL writes one SpanData JSON object per line — easy to grep
	// and stream.
	FormatJSONL TraceFormat = iota
	// FormatChrome writes the Chrome trace_event JSON array, loadable in
	// chrome://tracing and Perfetto.
	FormatChrome
)

// chromeEvent is the trace_event wire form of a span: ph "X" with a
// duration, or an instant on its lane ("i", thread scope) for a
// zero-duration span. Each trace is one lane (tid); the trace/span/parent
// IDs and the error mark ride in args beside the attributes, so the links
// survive. Args are a map, so they are written sorted by key.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   uint64            `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args"`
}

func chromeEventOf(d SpanData) chromeEvent {
	args := make(map[string]string, len(d.Attrs)+4)
	for k, v := range d.Attrs {
		args[k] = v
	}
	args["trace"] = formatUint(d.TraceID)
	args["span"] = formatUint(d.SpanID)
	if d.ParentID != 0 {
		args["parent"] = formatUint(d.ParentID)
	}
	if d.Err {
		args["err"] = "true"
	}
	ev := chromeEvent{
		Name: d.Name, Cat: d.Cat, Phase: "X", TS: d.Start, Dur: d.Dur,
		PID: 1, TID: d.TraceID, Args: args,
	}
	if d.Dur == 0 {
		ev.Phase, ev.Scope = "i", "t"
	}
	return ev
}

// Tracer encodes completed spans on a writer. All methods are nil-safe, so
// a span tracer without an output writes nothing for free.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	format TraceFormat
	wrote  bool // Chrome format: whether the next record needs a comma
	closed bool
	err    error
	events uint64
}

// NewTracer wraps w. The caller owns w's lifetime; Close finalizes the
// encoding (closing the Chrome array) but does not close w.
func NewTracer(w io.Writer, format TraceFormat) *Tracer {
	t := &Tracer{w: w, format: format}
	if format == FormatChrome {
		_, t.err = io.WriteString(w, "[\n")
	}
	return t
}

// write encodes one completed span: the span tracer's output and the
// flight recorder's dump both go through here.
func (t *Tracer) write(d SpanData) {
	if t == nil {
		return
	}
	var line []byte
	var err error
	if t.format == FormatChrome {
		line, err = json.Marshal(chromeEventOf(d))
	} else {
		line, err = json.Marshal(d)
		line = append(line, '\n')
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if t.format == FormatChrome && t.wrote {
		line = append([]byte(",\n"), line...)
	}
	if _, err := t.w.Write(line); err != nil {
		t.err = err
		return
	}
	t.wrote = true
	t.events++
}

// Events reports how many spans were written.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Close finalizes the encoding and returns the first write error, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.format == FormatChrome && t.err == nil {
		_, t.err = io.WriteString(t.w, "\n]\n")
	}
	return t.err
}

// Telemetry bundles the registry every layer reports into with the
// simulation's trace. One Telemetry is shared per simulation (it lives on
// the scheduler, which every layer already holds).
type Telemetry struct {
	Registry *Registry
	// Tracer is nil unless tracing was requested; it stamps spans with the
	// simulation's virtual clock.
	Tracer *SpanTracer
	// Phase carries the running study phase's span while it is traced:
	// every simulator trace site records a zero-duration child of it. Nil
	// otherwise, and instrumented code checks for nil before formatting
	// event arguments.
	Phase context.Context
}

// NewTelemetry returns a telemetry hub with a fresh registry and no tracer.
func NewTelemetry() *Telemetry {
	return &Telemetry{Registry: NewRegistry()}
}
