package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"iotlan"
)

// The workloads a run can name, in the order a full run executes them.
var workloads = []string{"repro", "ingest", "churn_read"}

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	// owners are the workloads whose own run measures a per-layer metric; in
	// a traced run of any other workload the value comes from a small probe
	// run of the first owner. target names the metric the layer should move on
	// its owners: an end-to-end metric, or opLatency.
	owners []string
	target string
}

// opLatency is the workloads' operation latency: the median operation,
// normalized to the reference host's speed (calib.go). It is a per-layer
// metric because no latency, raw or normalized, stayed within a 0.10 bound
// from run to run on the reference host (README.md, "Dropped metrics").
const opLatency = "client.op_p50_ref_ms"

// e2eMetrics are what every workload reports untraced. Each workload defines
// its operation and set-up (see README.md):
//
//	repro       op = ResetAnalysisCaches + Everything; set-up = New + RunAll
//	ingest      op = one household's wire + pcap uploads; set-up = durable Open (recovery)
//	churn_read  op = a table2 read then a mitigations read; set-up = Open + preload
//
// setup_s is the median set-up, normalized to the reference host's speed
// (calib.go); heap_live_mb is the live heap once the run ends. The
// operation's latency and throughput are per-layer metrics (opLatency).
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
}

var (
	ownRepro  = []string{"repro"}
	ownIngest = []string{"ingest"}
	ownChurn  = []string{"churn_read"}
	ownBoth   = []string{"ingest", "churn_read"}
)

// layerMetrics are what a traced run (-trace 1) reports.
var layerMetrics = append([]metricDef{
	{"iotlan.passive_s", "s", "lower", ownRepro, "setup_s"},
	{"iotlan.scans_s", "s", "lower", ownRepro, "setup_s"},
	{"iotlan.vuln_s", "s", "lower", ownRepro, "setup_s"},
	{"iotlan.apps_s", "s", "lower", ownRepro, "setup_s"},
	{"inspector.generate_s", "s", "lower", ownRepro, "setup_s"},
	{"sim.events", "count", "lower", ownRepro, "setup_s"},
	{"lan.frames_delivered", "count", "lower", ownRepro, "setup_s"},
	{"stack.tcp_segments", "count", "lower", ownRepro, "setup_s"},
	{"device.messages", "count", "lower", ownRepro, "setup_s"},
	{"sim.events_per_s", "1/s", "higher", ownRepro, "setup_s"},
	{"lan.frames_per_s", "1/s", "higher", ownRepro, "setup_s"},
	{"lan.frames_dropped", "count", "lower", ownRepro, "setup_s"},
	{"stack.tcp_retransmits", "count", "lower", ownRepro, "setup_s"},
	{"pcap.index_s", "s", "lower", ownRepro, opLatency},
	{"analysis.graph_s", "s", "lower", ownRepro, opLatency},
	{"analysis.identifiers_s", "s", "lower", ownRepro, opLatency},
	{"repro.residual_ms", "ms", "lower", ownRepro, opLatency},

	{"inspector.decode_us", "us", "lower", ownIngest, opLatency},
	{"inspector.content_hash_us", "us", "lower", ownIngest, opLatency},
	{"analysis.household_partial_us", "us", "lower", ownBoth, opLatency},
	{"analysis.partial_add_us", "us", "lower", ownIngest, opLatency},
	{"pcap.decode_us", "us", "lower", ownIngest, opLatency},
	{"pcap.index_us", "us", "lower", ownIngest, opLatency},
	{"store.wal_append_us", "us", "lower", ownIngest, opLatency},
	{"http.roundtrip_us", "us", "lower", ownBoth, opLatency},
	{"serve.cache_hit_ratio", "ratio", "higher", ownIngest, opLatency},
	{"serve.refold_skip_ratio", "ratio", "higher", ownIngest, opLatency},
	{"serve.cache_full", "count", "lower", ownIngest, opLatency},
	{"client.upload_p99_ms", "ms", "lower", ownIngest, opLatency},
	{"store.checkpoint_ms", "ms", "lower", ownIngest, opLatency},
	{"store.checkpoints", "count", "lower", ownIngest, opLatency},
	{"serve.retry_429_ratio", "ratio", "lower", ownIngest, opLatency},
	{"store.replay_s", "s", "lower", ownIngest, "setup_s"},
	{"serve.selfcheck_s", "s", "lower", ownIngest, "setup_s"},
	{"ingest.residual_ms", "ms", "lower", ownIngest, opLatency},

	{"analysis.entropy_clone_ms", "ms", "lower", ownChurn, opLatency},
	{"analysis.entropy_merge_ms", "ms", "lower", ownChurn, opLatency},
	{"iotlan.entropy_render_ms", "ms", "lower", ownChurn, opLatency},
	{"analysis.mitigation_clone_ms", "ms", "lower", ownChurn, opLatency},
	{"analysis.mitigation_merge_ms", "ms", "lower", ownChurn, opLatency},
	{"iotlan.mitigation_render_ms", "ms", "lower", ownChurn, opLatency},
	{"client.read_table2_p50_ms", "ms", "lower", ownChurn, opLatency},
	{"client.read_table2_p90_ms", "ms", "lower", ownChurn, opLatency},
	{"client.read_mitigations_p50_ms", "ms", "lower", ownChurn, opLatency},
	{"client.read_mitigations_p90_ms", "ms", "lower", ownChurn, opLatency},
	{"analysis.partial_sub_us", "us", "lower", ownChurn, opLatency},
	{"client.write_p50_ms", "ms", "lower", ownChurn, opLatency},
	{"client.write_p99_ms", "ms", "lower", ownChurn, opLatency},
	{"client.gen_late_p99_ms", "ms", "lower", ownChurn, opLatency},
	{"serve.fleet_cache_hit_ratio", "ratio", "lower", ownChurn, opLatency},
	{"serve.shard_partial_hit_ratio", "ratio", "higher", ownChurn, opLatency},
	{"churn_read.residual_ms", "ms", "lower", ownChurn, opLatency},

	{opLatency, "ms", "lower", workloads, ""},
	{"host.calib_ms", "ms", "lower", workloads, opLatency},
	{"client.op_p50_ms", "ms", "lower", workloads, opLatency},
	{"client.op_p90_ms", "ms", "lower", workloads, opLatency},
	{"client.ops_per_s", "1/s", "higher", workloads, opLatency},
	{"runtime.gc_pause_ms", "ms", "lower", workloads, opLatency},
	{"runtime.gc_cycles", "count", "lower", workloads, "heap_live_mb"},
	{"runtime.goroutines_max", "count", "lower", workloads, opLatency},
}, artifactMetrics()...)

// artifactMetrics times every registry artifact on its own.
func artifactMetrics() []metricDef {
	var defs []metricDef
	for _, name := range iotlan.ArtifactNames() {
		defs = append(defs, metricDef{"artifact." + name + "_s", "s", "lower", ownRepro, opLatency})
	}
	return defs
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	setups            []time.Duration // one per set-up repetition, normalized (calib.go)
	ops               []time.Duration // per-operation latency
	opsNorm           []time.Duration // the same, normalized
	opsElapsed        time.Duration   // wall time the operations took
	heapLive          float64         // MB
	layers            map[string]float64
	gateErrs          []error
	info              []string // human-readable lines printed before the result
}

func newReport() *report { return &report{layers: map[string]float64{}} }

// gate records a failed correctness check; a nil error passes.
func (r *report) gate(err error) {
	if err != nil {
		r.gateErrs = append(r.gateErrs, err)
	}
}

// e2e derives the end-to-end metrics from the raw samples.
func (r *report) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s":      median(r.setups).Seconds(),
		"heap_live_mb": r.heapLive,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile interpolates linearly between the two nearest order statistics
// (the R-7 rule), so small samples still give a value that moves smoothly.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration(float64(s[lo+1]-s[lo])*(pos-float64(lo)))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// heapLiveMB collects garbage and reads the live heap, the memory a
// workload's state holds once transient allocations are gone.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeWatch samples Go runtime state across a measured window: GC pause
// time and cycles as deltas, and the largest goroutine count seen.
type runtimeWatch struct {
	start     runtime.MemStats
	stop      chan struct{}
	done      sync.WaitGroup
	maxGorout int
}

func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{}), maxGorout: runtime.NumGoroutine()}
	runtime.ReadMemStats(&w.start)
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > w.maxGorout {
					w.maxGorout = n
				}
			}
		}
	}()
	return w
}

// end stops sampling and records the runtime metrics into layers.
func (w *runtimeWatch) end(layers map[string]float64) {
	close(w.stop)
	w.done.Wait()
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	layers["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	layers["runtime.gc_cycles"] = float64(now.NumGC - w.start.NumGC)
	layers["runtime.goroutines_max"] = float64(w.maxGorout)
}
