package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Strict parser for the Prometheus text exposition format (version 0.0.4).
// It validates the way a strict scraper would: metric/label name grammar,
// quoted-and-escaped label values, TYPE declared before samples, no
// duplicate series, histogram bucket monotonicity, a +Inf bucket equal to
// _count. WritePrometheusPrefixed output must round-trip through it (pinned
// by the golden tests); iotload and CI use it to reject a malformed /metrics
// page instead of grepping blindly.

// PromSample is one parsed sample line: `name{labels} value`.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

var (
	promMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ParsePrometheus parses and validates a full exposition page. It returns
// every sample plus the family→type declarations, or the first violation.
func ParsePrometheus(text string) ([]PromSample, map[string]string, error) {
	types := map[string]string{} // family → type
	var samples []PromSample
	seen := map[string]bool{}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, nil, fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				}
				fam, typ := fields[2], fields[3]
				if !promMetricNameRe.MatchString(fam) {
					return nil, nil, fmt.Errorf("line %d: bad family name %q", ln+1, fam)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, nil, fmt.Errorf("line %d: bad type %q", ln+1, typ)
				}
				if _, dup := types[fam]; dup {
					return nil, nil, fmt.Errorf("line %d: duplicate TYPE for %q", ln+1, fam)
				}
				types[fam] = typ
			}
			continue // HELP and other comments are legal
		}
		s, err := parsePromSampleLine(ln+1, line)
		if err != nil {
			return nil, nil, err
		}
		key := s.Name + promSeriesLabels(s.Labels)
		if seen[key] {
			return nil, nil, fmt.Errorf("line %d: duplicate series %s", ln+1, key)
		}
		seen[key] = true
		if promFamilyOf(s.Name, types) == "" {
			return nil, nil, fmt.Errorf("line %d: sample %q has no preceding TYPE", ln+1, s.Name)
		}
		samples = append(samples, s)
	}

	if err := promValidateHistograms(types, samples); err != nil {
		return nil, nil, err
	}
	return samples, types, nil
}

// parsePromSampleLine parses `name{labels} value` with full escape handling.
func parsePromSampleLine(ln int, line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("line %d: no value: %q", ln, line)
	}
	s.Name = line[:i]
	if !promMetricNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("line %d: bad metric name %q", ln, s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if len(rest) == 0 {
				return s, fmt.Errorf("line %d: unterminated label block", ln)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, fmt.Errorf("line %d: label without '=': %q", ln, rest)
			}
			lname := rest[:eq]
			if !promLabelNameRe.MatchString(lname) {
				return s, fmt.Errorf("line %d: bad label name %q", ln, lname)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return s, fmt.Errorf("line %d: label value not quoted", ln)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						return s, fmt.Errorf("line %d: dangling escape", ln)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("line %d: invalid escape \\%c", ln, rest[1])
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					closed = true
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if !closed {
				return s, fmt.Errorf("line %d: unterminated label value", ln)
			}
			if _, dup := s.Labels[lname]; dup {
				return s, fmt.Errorf("line %d: duplicate label %q", ln, lname)
			}
			s.Labels[lname] = val.String()
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return s, fmt.Errorf("line %d: malformed value: %q", ln, rest)
	}
	v, err := ParsePromFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("line %d: bad value %q: %v", ln, fields[0], err)
	}
	s.Value = v
	return s, nil
}

// ParsePromFloat parses a sample value, including the exposition format's
// spelled-out specials.
func ParsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// promFamilyOf maps a sample name back to its declared family, honoring the
// histogram suffix grammar. Empty means undeclared (or a bare sample under a
// histogram/summary family, which is invalid).
func promFamilyOf(sampleName string, types map[string]string) string {
	if typ, ok := types[sampleName]; ok {
		if typ == "histogram" || typ == "summary" {
			return ""
		}
		return sampleName
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if fam, found := strings.CutSuffix(sampleName, suf); found {
			if types[fam] == "histogram" {
				return fam
			}
		}
	}
	return ""
}

// promSeriesLabels renders a label set as a canonical sorted key.
func promSeriesLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, ",%s=%q", k, labels[k])
	}
	return sb.String()
}

// promValidateHistograms checks every histogram series for cumulative bucket
// monotonicity, a +Inf bucket, and bucket/_count agreement.
func promValidateHistograms(types map[string]string, samples []PromSample) error {
	type hseries struct {
		buckets map[float64]float64 // le → cumulative count
		count   *float64
		sum     bool
	}
	series := map[string]*hseries{}
	get := func(fam string, labels map[string]string) *hseries {
		base := map[string]string{}
		for k, v := range labels {
			if k != "le" {
				base[k] = v
			}
		}
		key := fam + promSeriesLabels(base)
		h, ok := series[key]
		if !ok {
			h = &hseries{buckets: map[float64]float64{}}
			series[key] = h
		}
		return h
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket") && types[strings.TrimSuffix(s.Name, "_bucket")] == "histogram":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le: %s", s.Name)
			}
			bound, err := ParsePromFloat(le)
			if err != nil {
				return fmt.Errorf("bad le %q: %v", le, err)
			}
			get(strings.TrimSuffix(s.Name, "_bucket"), s.Labels).buckets[bound] = s.Value
		case strings.HasSuffix(s.Name, "_count") && types[strings.TrimSuffix(s.Name, "_count")] == "histogram":
			v := s.Value
			get(strings.TrimSuffix(s.Name, "_count"), s.Labels).count = &v
		case strings.HasSuffix(s.Name, "_sum") && types[strings.TrimSuffix(s.Name, "_sum")] == "histogram":
			get(strings.TrimSuffix(s.Name, "_sum"), s.Labels).sum = true
		}
	}
	for key, h := range series {
		if len(h.buckets) == 0 || h.count == nil || !h.sum {
			return fmt.Errorf("histogram %s incomplete", key)
		}
		bounds := make([]float64, 0, len(h.buckets))
		for b := range h.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			return fmt.Errorf("histogram %s missing +Inf bucket", key)
		}
		prev := -1.0
		for _, b := range bounds {
			if h.buckets[b] < prev {
				return fmt.Errorf("histogram %s buckets not monotone at le=%v: %v < %v", key, b, h.buckets[b], prev)
			}
			prev = h.buckets[b]
		}
		if inf := h.buckets[math.Inf(1)]; inf != *h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", key, inf, *h.count)
		}
	}
	return nil
}

// PromHistogramQuantile interpolates the q-th quantile from one histogram
// series' parsed samples: cumulative `le` buckets from an exposition page,
// the inverse of what WritePrometheusPrefixed renders. Buckets need not be
// sorted. Returns 0 for an empty histogram.
//
// The walk is the exact mirror of Histogram.Quantile over the de-cumulated
// counts, so scraping a page and asking the live histogram agree on every
// input. Empty buckets are skipped when locating the target rank — the old
// `cum >= target` walk stopped at the first bucket whose cumulative count
// met the rank even when that bucket held no observations, which made a
// histogram whose every observation overflowed into +Inf report 0 (no finite
// bucket had advanced prevBound past its zero value) instead of the largest
// finite bound the live histogram reports.
func PromHistogramQuantile(buckets map[float64]float64, q float64) float64 {
	bounds := make([]float64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := buckets[bounds[len(bounds)-1]]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// largestFinite is what the +Inf bucket reports: nothing to interpolate
	// against above the top finite bound.
	largestFinite := func() float64 {
		for i := len(bounds) - 1; i >= 0; i-- {
			if !math.IsInf(bounds[i], 1) {
				return bounds[i]
			}
		}
		return 0
	}
	rank := q * total
	var prevCum float64
	for i, b := range bounds {
		cum := buckets[b]
		c := cum - prevCum
		prevCum = cum
		if cum < rank || c == 0 {
			continue
		}
		if math.IsInf(b, 1) {
			return largestFinite()
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		within := (rank - (cum - c)) / c
		return lo + (b-lo)*within
	}
	return largestFinite()
}
