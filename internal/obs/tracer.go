package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceFormat selects the tracer's on-disk encoding.
type TraceFormat int

const (
	// FormatJSONL writes one JSON object per line — easy to grep and stream.
	FormatJSONL TraceFormat = iota
	// FormatChrome writes the Chrome trace_event JSON array, loadable in
	// chrome://tracing and Perfetto.
	FormatChrome
)

// TraceEvent is one structured record on the virtual timeline.
type TraceEvent struct {
	// TS is virtual microseconds since the simulation epoch.
	TS int64 `json:"ts"`
	// Dur is the span length in virtual microseconds (0 for instants).
	Dur int64 `json:"dur,omitempty"`
	// Cat groups events by layer ("sim", "lan", "tcp", "dhcp", "proto").
	Cat  string            `json:"cat"`
	Name string            `json:"name"`
	Args map[string]string `json:"args,omitempty"`
	// TID separates concurrent tracks (Chrome renders one lane per tid);
	// 0 means the default track.
	TID int `json:"tid,omitempty"`
}

// chromeEvent is the trace_event wire form. Instants use ph "i" with global
// scope; spans use ph "X" with a duration.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   int64             `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// Tracer streams TraceEvents to a writer. All methods are nil-safe, so
// instrumented code can call through an unset tracer for free.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	format TraceFormat
	wrote  bool // Chrome format: whether the opening bracket needs a comma
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

// Event records an instant at ts virtual microseconds. args alternate
// key, value.
func (t *Tracer) Event(ts int64, cat, name string, args ...string) {
	t.emit(TraceEvent{TS: ts, Cat: cat, Name: name, Args: argMap(args)})
}

// SpanOn records a completed interval on a specific track: concurrent
// requests each get their own Chrome lane instead of stacking on tid 1.
func (t *Tracer) SpanOn(tid int, ts, dur int64, cat, name string, args ...string) {
	t.emit(TraceEvent{TS: ts, Dur: dur, Cat: cat, Name: name, Args: argMap(args), TID: tid})
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

func (t *Tracer) emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	var line []byte
	var err error
	switch t.format {
	case FormatChrome:
		tid := ev.TID
		if tid == 0 {
			tid = 1
		}
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, TS: ev.TS, Dur: ev.Dur,
			PID: 1, TID: tid, Args: ev.Args,
		}
		if ev.Dur > 0 {
			ce.Phase = "X"
		} else {
			ce.Phase = "i"
			ce.Scope = "g"
		}
		line, err = json.Marshal(ce)
		if err == nil {
			if t.wrote {
				line = append([]byte(",\n"), line...)
			}
		}
	default:
		line, err = json.Marshal(ev)
		line = append(line, '\n')
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(line); err != nil {
		t.err = err
		return
	}
	t.wrote = true
	t.events++
}

// Events reports how many records were written.
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

// Telemetry bundles the registry every layer reports into with the optional
// tracer. One Telemetry is shared per simulation (it lives on the
// scheduler, which every layer already holds).
type Telemetry struct {
	Registry *Registry
	// Tracer is nil unless tracing was requested; instrumented code checks
	// for nil before formatting event arguments.
	Tracer *Tracer
}

// NewTelemetry returns a telemetry hub with a fresh registry and no tracer.
func NewTelemetry() *Telemetry {
	return &Telemetry{Registry: NewRegistry()}
}
