// Package obs is the telemetry substrate of the simulator and the serving
// path: a labeled metrics registry and spans, the one trace record. It is
// dependency-free (stdlib only) so every layer — sim kernel, L2 switch,
// TCP/IP stack, device runtime, study pipeline, iotserve — can report into
// one place without import cycles.
//
// Determinism is a design constraint: every value the Registry holds is
// derived from virtual-time activity, so two runs with the same seed produce
// byte-identical Snapshot output. The simulator's spans run on its virtual
// clock, so a seed always writes the same trace too; only iotserve's spans
// read the wall clock (WallClock).
package obs

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Key renders the canonical series key name{k1=v1,k2=v2}. Labels alternate
// key, value and are sorted by key, so the same label set always produces
// the same series regardless of argument order.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteByte('=')
		sb.WriteString(p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing series. Safe for concurrent use
// (the sim is single-threaded, but the opt-in HTTP endpoint reads live).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a series that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observations land in the first
// bucket whose upper bound is >= the value; larger values land in +Inf.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) from the bucket counts,
// Prometheus histogram_quantile style: the target rank is located in its
// bucket and position interpolated linearly between the bucket's bounds.
// The +Inf bucket reports the highest finite bound (there is nothing to
// interpolate against); an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		within := (rank - (cum - float64(c))) / float64(c)
		return lo + (hi-lo)*within
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// histSnapshot is the serialized form of a Histogram.
type histSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"`
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSnapshot{Count: h.count, Sum: h.sum, Buckets: make(map[string]uint64, len(h.counts))}
	for i, b := range h.bounds {
		s.Buckets["le="+strconv.FormatFloat(b, 'g', -1, 64)] = h.counts[i]
	}
	s.Buckets["le=+Inf"] = h.counts[len(h.bounds)]
	return s
}

// Registry holds every series, keyed by Key(name, labels...). Lookups are
// mutex-guarded; hot paths should resolve their handles once and increment
// the returned Counter/Gauge directly.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter for the series, creating it at zero on first
// use. The same name+labels always yield the same *Counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge for the series, creating it at zero on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram for the series, creating it with the given
// bucket upper bounds on first use (bounds are ignored on later lookups).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	key := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.histograms[key] = h
	}
	return h
}

// CounterValue reads a counter by series key without creating it.
func (r *Registry) CounterValue(key string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c.Value()
	}
	return 0
}

// Total sums every counter whose series name matches (all label sets).
func (r *Registry) Total(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum uint64
	prefix := name + "{"
	for key, c := range r.counters {
		if key == name || strings.HasPrefix(key, prefix) {
			sum += c.Value()
		}
	}
	return sum
}

// SeriesCount reports the number of distinct labeled series.
func (r *Registry) SeriesCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.gauges) + len(r.histograms)
}

// snapshotData is the serialized form of the registry. encoding/json sorts
// map keys, so marshaling identical values produces identical bytes.
type snapshotData struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]histSnapshot `json:"histograms"`
}

func (r *Registry) snapshotData() snapshotData {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := snapshotData{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]histSnapshot, len(r.histograms)),
	}
	for k, c := range r.counters {
		d.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		d.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		d.Histograms[k] = h.snapshot()
	}
	return d
}

// Snapshot renders the registry as deterministic, indented JSON: same
// contents, same bytes — the property the determinism tests pin down.
func (r *Registry) Snapshot() []byte {
	b, err := json.MarshalIndent(r.snapshotData(), "", "  ")
	if err != nil { // unreachable: the snapshot types always marshal
		return []byte("{}")
	}
	return append(b, '\n')
}
