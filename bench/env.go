package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/obs"
)

// sizes fixes how much work each workload does. fullSizes is the benchmark;
// probeSizes is the small shape the tests and the traced runs' probes use.
type sizes struct {
	// repro: the study's settings (a nil catalog is the full 93-device lab).
	catalog      []*device.Profile
	idle         time.Duration
	interactions int
	households   int
	apps         int
	// checkReference compares seed 1's artifact checksum with reference.json.
	checkReference bool

	// ingest: each trial recovers a durable fleet of preload households (the
	// first checkpointed of them in a checkpoint, the rest in the WAL tail),
	// then uploads newHouseholds as wire + pcap bodies, then a dupFrac tail
	// re-posting some of them.
	preload, checkpointed, newHouseholds int
	dupFrac                              float64

	// churn_read: fleet households preloaded in batch-household bodies, then
	// one writer re-uploads changed households at writeRate per second.
	fleet, batch int
	writeRate    float64

	// window bounds each workload's measurement: repro runs at least minOps
	// operations and ingest at least setupReps trials whatever the window.
	window    time.Duration
	minOps    int
	setupReps int
	// replays is how many calls each per-layer replay times.
	replays int
}

func fullSizes() sizes {
	return sizes{
		idle: 45 * time.Minute, interactions: 120, households: 3860,
		checkReference: true,
		preload:        6144, checkpointed: 4096,
		newHouseholds: 5000, dupFrac: 0.25,
		fleet: 5000, batch: 1000, writeRate: 200,
		window: windowSeconds * time.Second, minOps: 3, setupReps: 5,
		replays: 1000,
	}
}

func probeSizes() sizes {
	return sizes{
		catalog: device.Subset("echo-1", "google-1", "hue-hub", "tplink-plug",
			"tuya-plug-1", "wyze-cam", "chromecast", "roku-tv"),
		idle: 2 * time.Minute, interactions: 5, households: 100, apps: 2,
		preload: 100, checkpointed: 60, newHouseholds: 200, dupFrac: 0.25,
		fleet: 500, batch: 100, writeRate: 200,
		window: time.Second, minOps: 3, setupReps: 2,
		replays: 50,
	}
}

// describe lists the sizes a workload runs at, for the host block.
func (sz sizes) describe(workload string) map[string]any {
	switch workload {
	case "repro":
		devices := "all"
		if sz.catalog != nil {
			devices = fmt.Sprint(len(sz.catalog))
		}
		return map[string]any{"devices": devices, "idle": sz.idle.String(),
			"interactions": sz.interactions, "households": sz.households, "apps": sz.apps,
			"window_s": sz.window.Seconds(), "min_ops": sz.minOps}
	case "ingest":
		return map[string]any{"preload": sz.preload, "checkpointed": sz.checkpointed,
			"new_households": sz.newHouseholds, "dup_frac": sz.dupFrac,
			"window_s": sz.window.Seconds(), "min_trials": sz.setupReps, "replays": sz.replays}
	}
	return map[string]any{"fleet": sz.fleet, "batch": sz.batch, "write_rate": sz.writeRate,
		"window_s": sz.window.Seconds(), "setup_reps": sz.setupReps, "replays": sz.replays}
}

// env is one workload run's context.
type env struct {
	seed  int64
	sz    sizes
	trace bool
	// dir holds the run's durable server state; it is removed afterwards.
	dir string
	// spans records the harness's calls into each layer; nil when untraced,
	// which turns every span call into a no-op.
	spans *obs.SpanTracer
	// calib reads the host's speed for timedNorm; each workload sets it.
	calib *calibrator
}

// timed runs fn as a span named name under ctx's span and returns its wall
// time. Spans are kept in memory (see traced) and cost nothing untraced.
func (e *env) timed(ctx context.Context, name string, fn func(ctx context.Context)) time.Duration {
	ctx, sp := e.spans.StartSpan(ctx, "bench", name)
	start := time.Now()
	fn(ctx)
	d := time.Since(start)
	sp.End()
	return d
}

// traced runs a workload with spans recorded, writes them as a Chrome
// trace, and fills the per-layer metrics the workload does not measure
// itself from probe runs of their owners at probe sizes. The probes exist
// because the benchmark's result format requires a traced run of any
// workload to report every per-layer metric in BENCHMARK.json; only the
// owner's values are measurements of the run (README.md says so).
func traced(name string, e *env, tracePath string) (*report, error) {
	rep, chrome, err := measureTraced(name, e)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(tracePath, chrome, 0o644); err != nil {
		return nil, err
	}
	rep.info = append(rep.info, "trace "+tracePath)
	probes := map[string]*report{}
	for _, owner := range workloads {
		if owner == name {
			continue
		}
		pe := &env{seed: e.seed, sz: probeSizes(), trace: true, dir: e.dir + "-probe-" + owner}
		p, err := measure(owner, pe)
		os.RemoveAll(pe.dir)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", owner, err)
		}
		if len(p.gateErrs) > 0 {
			return nil, fmt.Errorf("probe %s: %v", owner, p.gateErrs[0])
		}
		probes[owner] = p
	}
	fillFromProbes(name, rep, probes)
	return rep, nil
}

// measureTraced runs a workload with its spans kept in memory and returns
// them as Chrome trace JSON.
func measureTraced(name string, e *env) (*report, []byte, error) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf, obs.FormatChrome)
	e.spans = obs.NewSpanTracer(obs.WallClock)
	e.spans.SetOutput(tracer)
	rep, err := measure(name, e)
	if err != nil {
		return nil, nil, err
	}
	if err := tracer.Close(); err != nil {
		return nil, nil, err
	}
	return rep, buf.Bytes(), nil
}

// fillFromProbes copies into rep every per-layer metric that workload name
// does not own, from the probe report of the metric's first owner.
func fillFromProbes(name string, rep *report, probes map[string]*report) {
	for _, def := range layerMetrics {
		if !owns(def, name) {
			rep.layers[def.name] = probes[def.owners[0]].layers[def.name]
		}
	}
}

func owns(def metricDef, workload string) bool {
	for _, o := range def.owners {
		if o == workload {
			return true
		}
	}
	return false
}
