package analysis

import (
	"math"
	"math/cmplx"
	"net/netip"
	"sort"
	"time"

	"iotlan/internal/classify"
	"iotlan/internal/layers"
	"iotlan/internal/pcap"
)

// PeriodicGroup is one (destination, protocol) traffic group tested for
// periodicity per Appendix D.1 (ports are ignored because devices randomise
// them).
type PeriodicGroup struct {
	SrcMAC   [6]byte
	Dst      netip.Addr
	Protocol string
	Times    []time.Time
	// Periodic is the DFT+autocorrelation verdict.
	Periodic bool
	// Period is the dominant interval when periodic.
	Period time.Duration
}

// GroupDiscoveryTraffic buckets capture records into (src, dst, protocol)
// groups for the periodicity analysis.
func GroupDiscoveryTraffic(records []pcap.Record) []*PeriodicGroup {
	final := classify.Final{}
	type key struct {
		src   [6]byte
		dst   netip.Addr
		proto string
	}
	index := map[key]*PeriodicGroup{}
	var order []*PeriodicGroup
	flows, _ := classify.Assemble(records)
	// Re-walk raw records for timestamps per group (flows lose them).
	labels := map[classify.FlowKey]string{}
	for _, f := range flows {
		labels[f.Key] = final.Classify(f)
	}
	// Only multicast/broadcast discovery traffic enters the analysis —
	// Appendix D.1 is about discovery protocol flows, and unicast responses
	// ride on other devices' schedules.
	discoveryLabels := map[string]bool{
		"MDNS": true, "SSDP": true, "TPLINK-SMARTHOME": true,
		"TUYALP": true, "COAP": true, "LIFX": true,
	}
	var p layers.Packet
	for _, r := range records {
		p.DecodeInto(r.Data)
		proto, sp, dp := p.Transport()
		if proto == "" || !p.Eth.Dst.IsMulticast() {
			continue
		}
		label := labels[classify.FlowKey{Src: p.SrcIP(), SrcPort: sp, Dst: p.DstIP(), DstPort: dp, Proto: proto}]
		if !discoveryLabels[label] {
			continue
		}
		k := key{src: p.Eth.Src, dst: p.DstIP(), proto: label}
		g, ok := index[k]
		if !ok {
			g = &PeriodicGroup{SrcMAC: k.src, Dst: k.dst, Protocol: label}
			index[k] = g
			order = append(order, g)
		}
		g.Times = append(g.Times, r.Time)
	}
	return order
}

// DetectPeriodicity runs the Appendix D.1 test on every group: bin the
// event train, take the DFT, confirm the dominant frequency with the
// autocorrelation at the implied lag.
func DetectPeriodicity(groups []*PeriodicGroup) (periodic int) {
	for _, g := range groups {
		g.Periodic, g.Period = isPeriodic(g.Times)
		if g.Periodic {
			periodic++
		}
	}
	return periodic
}

// binWidth is the event-train resolution.
const binWidth = 5 * time.Second

// isPeriodic decides whether a timestamp train is periodic.
func isPeriodic(times []time.Time) (bool, time.Duration) {
	if len(times) < 4 {
		return false, 0
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	span := times[len(times)-1].Sub(times[0])
	if span <= 0 {
		return false, 0
	}
	nBins := int(span/binWidth) + 1
	if nBins < 8 {
		// Short trains: fall back to interval-variance test.
		return intervalTest(times)
	}
	if nBins > 1<<14 {
		nBins = 1 << 14
	}
	bins := make([]float64, nBins)
	for _, t := range times {
		idx := int(t.Sub(times[0]) / binWidth)
		if idx >= nBins {
			idx = nBins - 1
		}
		bins[idx]++
	}
	// Remove the DC component.
	mean := 0.0
	for _, b := range bins {
		mean += b
	}
	mean /= float64(nBins)
	for i := range bins {
		bins[i] -= mean
	}
	// spec holds the bins below Nyquist (k < n/2) of an n-point transform.
	spec := dft(bins)
	// Find the dominant non-DC frequency.
	bestK, bestP := 0, 0.0
	totalP := 0.0
	for k := 1; k < len(spec); k++ {
		p := cmplx.Abs(spec[k])
		totalP += p
		if p > bestP {
			bestP, bestK = p, k
		}
	}
	if bestK == 0 || totalP == 0 {
		return intervalTest(times)
	}
	energy := 0.0 // Σx², the autocorrelation's normalizer
	for _, b := range bins {
		energy += float64(b * b) // rounded product: never fused
	}
	// Spectral concentration: the peak must stand out.
	if bestP >= 2.5*totalP/float64(len(spec)) {
		period := time.Duration(float64(nBins) / float64(bestK) * float64(binWidth))
		// Confirm with the autocorrelation at the implied lag (±1 bin to
		// absorb jitter-induced smearing).
		lag := int(period / binWidth)
		for _, l := range []int{lag, lag - 1, lag + 1} {
			if l >= 1 && l < nBins/2 && autocorr(bins, energy, l) > 0.25 {
				return true, period
			}
		}
	}
	// Autocorrelation scan: jittered timers smear the spectrum but keep a
	// clear self-similarity peak.
	if lag, r := bestAutocorr(bins, energy); r > 0.35 && lag >= 2 {
		return true, time.Duration(lag) * binWidth
	}
	return intervalTest(times)
}

// bestAutocorr scans lags for the strongest self-similarity; energy is
// Σbins².
func bestAutocorr(bins []float64, energy float64) (int, float64) {
	bestLag, best := 0, 0.0
	max := len(bins) / 3
	if max > 720 { // cap the scan at one-hour lags
		max = 720
	}
	for lag := 2; lag < max; lag++ {
		if r := autocorr(bins, energy, lag); r > best {
			best, bestLag = r, lag
		}
	}
	return bestLag, best
}

// intervalTest is the fallback: low coefficient-of-variation inter-arrival
// times are periodic. The tails are trimmed so a single boot-time gap does
// not mask an otherwise clean timer.
func intervalTest(times []time.Time) (bool, time.Duration) {
	if len(times) < 3 {
		return false, 0
	}
	var intervals []float64
	for i := 1; i < len(times); i++ {
		intervals = append(intervals, times[i].Sub(times[i-1]).Seconds())
	}
	sort.Float64s(intervals)
	if len(intervals) >= 10 {
		cut := len(intervals) / 10
		intervals = intervals[cut : len(intervals)-cut]
	}
	mean, varsum := 0.0, 0.0
	for _, iv := range intervals {
		mean += iv
	}
	mean /= float64(len(intervals))
	if mean == 0 {
		return false, 0
	}
	for _, iv := range intervals {
		varsum += float64((iv - mean) * (iv - mean)) // rounded product: never fused
	}
	cv := math.Sqrt(varsum/float64(len(intervals))) / mean
	if cv < 0.35 {
		return true, time.Duration(mean * float64(time.Second))
	}
	return false, 0
}

// dft is a direct discrete Fourier transform returning the bins k < n/2 —
// all a real input's spectrum holds below Nyquist — where n is the
// transform length. For large inputs it decimates first, so n ≤ 2048 and
// the O(n²) sum stays cheap.
func dft(x []float64) []complex128 {
	n := len(x)
	if n > 2048 {
		// Decimate: average adjacent bins to bound the O(n²) cost.
		factor := (n + 2047) / 2048
		var reduced []float64
		for i := 0; i < n; i += factor {
			sum := 0.0
			for j := i; j < i+factor && j < n; j++ {
				sum += x[j]
			}
			reduced = append(reduced, sum)
		}
		x = reduced
		n = len(x)
	}
	out := make([]complex128, n/2)
	for k := range out {
		var re, im float64
		for t := 0; t < n; t++ {
			// x[t]·e^(iθ), with e^(iθ) = cos θ + i·sin θ exactly as
			// cmplx.Exp computes it. The conversions round each product
			// before the sum, so no fused multiply-add changes a bit.
			s, c := math.Sincos(-2 * math.Pi * float64(k) * float64(t) / float64(n))
			re += float64(x[t] * c)
			im += float64(x[t] * s)
		}
		out[k] = complex(re, im)
	}
	return out
}

// autocorr computes the autocorrelation of x at lag, normalized by
// energy = Σx².
func autocorr(x []float64, energy float64, lag int) float64 {
	if lag >= len(x) || energy == 0 {
		return 0
	}
	var num float64
	for i := 0; i+lag < len(x); i++ {
		num += float64(x[i] * x[i+lag]) // rounded product: never fused
	}
	return num / energy
}

// PeriodicitySummary reports Appendix D.1's headline numbers: the fraction
// of discovery groups that are periodic and groups-per-device.
type PeriodicitySummary struct {
	Groups          int
	Periodic        int
	PeriodicFrac    float64
	GroupsPerDevice float64
}

// SummarizePeriodicity computes the summary over a capture. Groups with too
// few events to assess (under four — slow timers in a short capture window)
// are excluded from the denominator.
func SummarizePeriodicity(records []pcap.Record) PeriodicitySummary {
	all := GroupDiscoveryTraffic(records)
	groups := all[:0]
	for _, g := range all {
		if len(g.Times) >= 4 {
			groups = append(groups, g)
		}
	}
	periodic := DetectPeriodicity(groups)
	devices := map[[6]byte]bool{}
	for _, g := range groups {
		devices[g.SrcMAC] = true
	}
	s := PeriodicitySummary{Groups: len(groups), Periodic: periodic}
	if len(groups) > 0 {
		s.PeriodicFrac = float64(periodic) / float64(len(groups))
	}
	if len(devices) > 0 {
		s.GroupsPerDevice = float64(len(groups)) / float64(len(devices))
	}
	return s
}
