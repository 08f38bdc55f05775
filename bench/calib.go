package main

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Host-speed normalization.
//
// The reference host is a 2-vCPU VM whose neighbours contend for the same
// physical cores. For minutes at a time the same code runs up to twice as
// slow, and by different amounts for different code (measured side by side:
// string-keyed map work +70%, the churn read path +65%, SHA-256 +10%). So
// set-up times and operation latencies are also reported normalized: an
// interval is divided by the calibration kernel's time read right before
// and right after it, and multiplied by calibRef, the kernel's time on the
// calm reference host, so it reads as the time the interval would take
// there. That halves the run-to-run spread of set-up times; operation
// latencies still vary by more than 0.10 (README.md, "Dropped metrics").
// The kernel mixes the work the workloads do most — string-keyed map
// inserts and lookups, sorting, float math — and uses only the standard
// library, so no change to the repository moves it. It allocates nothing,
// so it neither triggers nor pays for collecting a workload's heap.

// calibRef is one calibration reading on the reference host when its
// neighbours are quiet.
const calibRef = 3 * time.Millisecond

// calibrator times the calibration kernel on as many processors at once as
// the measured operation keeps busy: a neighbour may be contending for only
// one of them. It is used from one goroutine at a time.
type calibrator struct {
	lanes    []*calibLane
	last     time.Duration   // the latest reading
	readings []time.Duration // every reading, for host.calib_ms
}

// calibLane is one processor's copy of the kernel's data.
type calibLane struct {
	m      map[string]int
	keys   []string
	ints   []int
	sorted []int
	x      []float64
	sink   float64
}

func newCalibrator(lanes int) *calibrator {
	c := &calibrator{}
	for range lanes {
		l := &calibLane{m: make(map[string]int, 12000), x: make([]float64, 80)}
		for i := 0; i < 12000; i++ {
			l.keys = append(l.keys, "calib-"+strconv.Itoa(i*7919))
		}
		for i := 0; i < 40000; i++ {
			l.ints = append(l.ints, (i*7919)%1000003)
		}
		l.sorted = make([]int, len(l.ints))
		for i := range l.x {
			l.x[i] = float64(i % 7)
		}
		c.lanes = append(c.lanes, l)
	}
	c.read()
	return c
}

// kernel is one run of the calibration's fixed work.
func (l *calibLane) kernel() {
	clear(l.m)
	for i, k := range l.keys {
		l.m[k] = i
	}
	n := 0
	for _, k := range l.keys {
		n += l.m[k]
	}
	copy(l.sorted, l.ints)
	sort.Ints(l.sorted)
	var re, im float64
	for k := range l.x {
		for t, v := range l.x {
			s, c := math.Sincos(-2 * math.Pi * float64(k*t) / float64(len(l.x)))
			re, im = re+v*c, im+v*s
		}
	}
	l.sink += re + im + float64(n+l.sorted[0])
}

// best is the fastest of three kernel runs, which drops a run that a single
// scheduling hiccup slowed.
func (l *calibLane) best() time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		l.kernel()
		best = min(best, time.Since(start))
	}
	return best
}

// read takes one reading: the mean over the lanes, run concurrently.
func (c *calibrator) read() time.Duration {
	times := make([]time.Duration, len(c.lanes))
	var wg sync.WaitGroup
	for i, l := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = l.best()
		}()
	}
	wg.Wait()
	c.last = mean(times)
	c.readings = append(c.readings, c.last)
	return c.last
}

// scale normalizes d, measured between calibration readings before and
// after, to the reference host's speed.
func scale(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*calibRef) / float64(before+after))
}

// timedNorm is e.timed, also returning the interval normalized by the
// calibration reading taken before it (the latest one) and one taken after.
func (e *env) timedNorm(ctx context.Context, name string, fn func(ctx context.Context)) (raw, norm time.Duration) {
	before := e.calib.last
	raw = e.timed(ctx, name, fn)
	return raw, scale(raw, before, e.calib.read())
}
