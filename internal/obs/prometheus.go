package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4): one `# TYPE` line per metric family, samples sorted
// deterministically, histogram buckets cumulative with a trailing `+Inf`,
// metric/label names sanitized to the exposition grammar and label values
// escaped. Serve it with Content-Type PrometheusContentType.

// PrometheusContentType is the content type a /metrics endpoint must
// declare for the text exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheusPrefixed renders every series in the registry as
// Prometheus text exposition, with a namespace prefix applied to every
// family name (skipped when the name already starts with it; "" applies
// none) — how multiple registries share one scrape without colliding.
// Output is deterministic: families sorted by name, samples sorted by label
// set.
func (r *Registry) WritePrometheusPrefixed(w io.Writer, prefix string) error {
	type sample struct {
		labels string // rendered {k="v",...} or ""
		value  string
		suffix string // histogram sub-series: "_bucket", "_sum", "_count"
	}
	type family struct {
		typ     string
		samples []sample
	}
	families := make(map[string]*family)
	get := func(name, typ string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{typ: typ}
			families[name] = f
		}
		return f
	}

	r.mu.Lock()
	counters := make(map[string]uint64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.Value()
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, h := range r.histograms {
		hists[k] = h
	}
	r.mu.Unlock()

	for _, key := range sortedKeys(counters) {
		name, labels := splitSeriesKey(key)
		f := get(promName(name, prefix), "counter")
		f.samples = append(f.samples, sample{labels: promLabels(labels), value: strconv.FormatUint(counters[key], 10)})
	}
	for _, key := range sortedKeys(gauges) {
		name, labels := splitSeriesKey(key)
		f := get(promName(name, prefix), "gauge")
		f.samples = append(f.samples, sample{labels: promLabels(labels), value: strconv.FormatInt(gauges[key], 10)})
	}
	// Histograms iterate in sorted-key order and the later sort is a no-op
	// for them, so per-series bucket order (ascending le, then +Inf, sum,
	// count) and cross-series order are both deterministic.
	for _, key := range sortedKeys(hists) {
		name, labels := splitSeriesKey(key)
		f := get(promName(name, prefix), "histogram")
		bounds, counts, count, sum := hists[key].cumulative()
		withLe := func(le string) string {
			l := append(append([][2]string(nil), labels...), [2]string{"le", le})
			return promLabels(l)
		}
		for i, b := range bounds {
			f.samples = append(f.samples, sample{
				suffix: "_bucket",
				labels: withLe(formatFloat(b)),
				value:  strconv.FormatUint(counts[i], 10),
			})
		}
		f.samples = append(f.samples, sample{
			suffix: "_bucket",
			labels: withLe("+Inf"),
			value:  strconv.FormatUint(count, 10),
		})
		f.samples = append(f.samples, sample{suffix: "_sum", labels: promLabels(labels), value: formatFloat(sum)})
		f.samples = append(f.samples, sample{suffix: "_count", labels: promLabels(labels), value: strconv.FormatUint(count, 10)})
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		// Stable sample order: histogram sub-series keep their append order
		// within one label set (buckets ascending, then sum, then count);
		// distinct label sets sort lexically.
		sort.SliceStable(f.samples, func(i, j int) bool {
			if f.typ == "histogram" {
				return false // SliceStable preserves per-series bucket order
			}
			return f.samples[i].labels < f.samples[j].labels
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", name, s.suffix, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cumulative snapshots a histogram as cumulative bucket counts per finite
// bound, plus total count and sum — the Prometheus shape.
func (h *Histogram) cumulative() (bounds []float64, counts []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i]
		counts[i] = cum
	}
	return bounds, counts, h.count, h.sum
}

// splitSeriesKey reverses Key(): "name{k1=v1,k2=v2}" → name, label pairs.
// Registry label values never contain ',' or '=' (they are protocol names,
// status codes, stage names), so the simple split is exact.
func splitSeriesKey(key string) (string, [][2]string) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, nil
	}
	name := key[:open]
	body := strings.TrimSuffix(key[open+1:], "}")
	if body == "" {
		return name, nil
	}
	parts := strings.Split(body, ",")
	labels := make([][2]string, 0, len(parts))
	for _, p := range parts {
		if eq := strings.IndexByte(p, '='); eq >= 0 {
			labels = append(labels, [2]string{p[:eq], p[eq+1:]})
		}
	}
	return name, labels
}

// promName sanitizes a metric family name to [a-zA-Z_:][a-zA-Z0-9_:]* and
// applies the namespace prefix.
func promName(name, prefix string) string {
	var sb strings.Builder
	sb.Grow(len(prefix) + 1 + len(name))
	if prefix != "" && !strings.HasPrefix(name, prefix+"_") {
		sb.WriteString(sanitizeName(prefix))
		sb.WriteByte('_')
	}
	sb.WriteString(sanitizeName(name))
	return sb.String()
}

func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// sanitizeLabelName maps to [a-zA-Z_][a-zA-Z0-9_]* (no colons in label
// names, per the exposition grammar).
func sanitizeLabelName(s string) string {
	if s == "" {
		return "_"
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			sb.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promLabels renders a sorted, escaped {k="v",...} block ("" when empty).
func promLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([][2]string(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, kv := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeLabelName(kv[0]))
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(kv[1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes backslash, double quote, and newline — the three
// escapes the exposition format defines for label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip decimal; +Inf/-Inf/NaN spelled out).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
