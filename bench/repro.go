package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"iotlan"
)

// reference.json is the committed record of the acceptance runs; the repro
// gate reads seed 1's artifact checksum from it.
//
//go:embed reference.json
var referenceJSON []byte

func referenceChecksum() (string, error) {
	var ref struct {
		Checksum string `json:"repro_checksum_seed1"`
	}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return "", fmt.Errorf("reference.json: %w", err)
	}
	return ref.Checksum, nil
}

// runRepro is the paper reproduction: New + RunAll at the paper's defaults
// is the set-up, then ResetAnalysisCaches + Everything repeats for the
// window, each call checksummed. The simulator layers do the set-up's work;
// the analysis layers do the operations'.
func runRepro(e *env) (*report, error) {
	r := newReport()
	ctx, root := e.spans.StartSpan(context.Background(), "bench", "repro")
	defer root.End()
	sz := e.sz
	opts := []iotlan.Option{
		iotlan.WithIdleDuration(sz.idle), iotlan.WithInteractions(sz.interactions),
		iotlan.WithHouseholds(sz.households), iotlan.WithApps(sz.apps),
	}
	if sz.catalog != nil {
		opts = append(opts, iotlan.WithLabProfiles(sz.catalog))
	}

	// Everything fans the artifacts out over every processor.
	e.calib = newCalibrator(runtime.GOMAXPROCS(0))
	watch := watchRuntime()
	var study *iotlan.Study
	var simTime, setup time.Duration
	e.timed(ctx, "setup", func(ctx context.Context) {
		_, setup = e.timedNorm(ctx, "iotlan.New", func(context.Context) { study = iotlan.New(e.seed, opts...) })
		for _, ph := range []struct {
			metric string
			run    func()
			sim    bool
		}{
			{"iotlan.passive_s", study.RunPassive, true},
			{"iotlan.scans_s", study.RunScans, true},
			{"iotlan.vuln_s", study.RunVulnScans, true},
			{"iotlan.apps_s", study.RunApps, true},
			{"inspector.generate_s", study.RunInspector, false},
		} {
			d, norm := e.timedNorm(ctx, ph.metric, func(context.Context) { ph.run() })
			setup += norm
			r.layers[ph.metric] = d.Seconds()
			if ph.sim {
				simTime += d
			}
		}
	})
	r.setups = []time.Duration{setup}
	reg := study.Lab.Telemetry().Registry
	for metric, series := range map[string]string{
		"sim.events":            "sim_events_processed",
		"lan.frames_delivered":  "lan_frames_delivered",
		"stack.tcp_segments":    "stack_tcp_segments",
		"device.messages":       "device_messages",
		"lan.frames_dropped":    "lan_frames_dropped",
		"stack.tcp_retransmits": "stack_tcp_retransmits",
	} {
		r.layers[metric] = float64(reg.Total(series))
	}
	r.layers["sim.events_per_s"] = r.layers["sim.events"] / simTime.Seconds()
	r.layers["lan.frames_per_s"] = r.layers["lan.frames_delivered"] / simTime.Seconds()

	var sums []string
	start := time.Now()
	for len(r.ops) < sz.minOps || time.Since(start) < sz.window {
		var res []iotlan.Result
		d, norm := e.timedNorm(ctx, "everything", func(context.Context) {
			study.ResetAnalysisCaches()
			res = study.Everything()
		})
		r.ops, r.opsNorm = append(r.ops, d), append(r.opsNorm, norm)
		sums = append(sums, checksum(res...))
	}
	r.opsElapsed = time.Since(start)
	r.attempted = len(r.ops)
	watch.end(r.layers)

	want := ""
	if sz.checkReference && e.seed == 1 {
		var err error
		if want, err = referenceChecksum(); err != nil {
			return nil, err
		}
	}
	r.gate(reproGate(sums, want))
	r.info = append(r.info, fmt.Sprintf("repro: checksum %s over %d Everything calls", sums[0], len(sums)))

	if e.trace {
		if err := reproLayers(ctx, e, study, r); err != nil {
			return nil, err
		}
	}
	r.heapLive = heapLiveMB()
	runtime.KeepAlive(study)
	return r, nil
}

// reproGate requires every Everything call to produce the same bytes and,
// when want is set, the checksum recorded for seed 1.
func reproGate(sums []string, want string) error {
	for i, s := range sums {
		if s != sums[0] {
			return fmt.Errorf("Everything call %d checksum %.12s differs from call 0's %.12s", i, s, sums[0])
		}
	}
	if want != "" && sums[0] != want {
		return fmt.Errorf("artifact checksum %.12s, reference.json records %.12s for seed 1", sums[0], want)
	}
	return nil
}

// reproLayers times the analysis prerequisites and then every registry
// artifact alone, sequentially. The ledger residual is one Everything call
// minus their sum; it is negative when Everything's parallel fan-out
// overlaps them.
func reproLayers(ctx context.Context, e *env, study *iotlan.Study, r *report) error {
	study.ResetAnalysisCaches()
	var sum time.Duration
	for _, step := range []struct {
		metric string
		run    func()
	}{
		{"pcap.index_s", func() { study.PassiveIndex() }},
		{"analysis.graph_s", func() { study.PassiveGraph() }},
		{"analysis.identifiers_s", func() { study.ExtractedIdentifiers() }},
	} {
		d := e.timed(ctx, step.metric, func(context.Context) { step.run() })
		r.layers[step.metric] = d.Seconds()
		sum += d
	}
	for _, name := range iotlan.ArtifactNames() {
		var err error
		d := e.timed(ctx, "artifact."+name, func(context.Context) { _, err = study.RunArtifact(name) })
		if err != nil {
			return err
		}
		r.layers["artifact."+name+"_s"] = d.Seconds()
		sum += d
	}
	r.layers["repro.residual_ms"] = ms(mean(r.ops) - sum)
	return nil
}
