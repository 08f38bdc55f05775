package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
	"iotlan/internal/serve"
)

// runChurn is artifact reads under churn. Set-up opens an in-memory server
// and preloads the fleet in batches, several times. For the window one
// writer re-uploads households with changed contents at a fixed rate (open
// loop: each write retracts the household's old contribution and folds the
// new one) while one closed-loop reader fetches table2 then mitigations —
// one operation. The read path (clone, merge, render) does the work; WAL,
// captures and the result cache do none, and every read misses the fleet
// memo because the writer keeps moving shard versions.
func runChurn(e *env) (*report, error) {
	r := newReport()
	ctx, root := e.spans.StartSpan(context.Background(), "bench", "churn_read")
	defer root.End()
	sz := e.sz

	fleet := households(worldSeed, e.seed, sz.fleet)
	var batches []upload
	for lo := 0; lo < sz.fleet; lo += sz.batch {
		batches = append(batches, upload{"/v1/ingest/inspector", wireBody(fleet[lo:min(lo+sz.batch, sz.fleet)]...)})
	}
	// Write k gives household k mod fleet the devices of another world's
	// household k: same ID, new contents.
	writes := int(sz.writeRate * sz.window.Seconds())
	alt := households(worldSeed+1, e.seed, writes)
	final := append([]*inspector.Household(nil), fleet...)
	writeBodies := make([]upload, writes)
	for k := range writeBodies {
		h := &inspector.Household{ID: fleet[k%sz.fleet].ID, Devices: alt[k].Devices}
		final[k%sz.fleet] = h
		writeBodies[k] = upload{"/v1/ingest/inspector", wireBody(h)}
	}

	// One read at a time keeps one processor busy; the writer uses part of
	// the other.
	e.calib = newCalibrator(1)
	client := newClient()
	defer client.CloseIdleConnections()
	var live *server
	for rep := 0; rep < sz.setupReps; rep++ {
		var err error
		var s *server
		_, d := e.timedNorm(ctx, "setup", func(ctx context.Context) {
			var srv *serve.Server
			if srv, err = serve.Open(serverConfig("")); err != nil {
				return
			}
			if s, err = listen(srv); err != nil {
				srv.Close()
				return
			}
			for _, b := range batches {
				if _, err = post(ctx, client, s.base, b); err != nil {
					return
				}
			}
		})
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, d)
		if rep < sz.setupReps-1 {
			s.close()
			continue
		}
		live = s
	}
	defer live.close()

	watch := watchRuntime()
	cl := churnLoad(ctx, e, client, live.base, writeBodies, r)
	watch.end(r.layers)

	r.gate(servedGate(ctx, client, live, offlineReference(final), "after churn"))
	r.gate(selfCheckGate(live, "after churn"))
	reg := live.srv.Registry()
	r.layers["serve.fleet_cache_hit_ratio"] = ratio(reg.CounterValue("serve_fleet_cache{result=hit}"), reg.Total("serve_fleet_cache"))
	r.layers["serve.shard_partial_hit_ratio"] = ratio(reg.CounterValue("serve_shard_partials{result=hit}"), reg.Total("serve_shard_partials"))
	r.layers["client.read_table2_p50_ms"] = ms(quantile(cl.table2, 0.50))
	r.layers["client.read_table2_p90_ms"] = ms(quantile(cl.table2, 0.90))
	r.layers["client.read_mitigations_p50_ms"] = ms(quantile(cl.mitigations, 0.50))
	r.layers["client.read_mitigations_p90_ms"] = ms(quantile(cl.mitigations, 0.90))
	r.layers["client.write_p50_ms"] = ms(quantile(cl.writes, 0.50))
	r.layers["client.write_p99_ms"] = ms(quantile(cl.writes, 0.99))
	r.layers["client.gen_late_p99_ms"] = ms(quantile(cl.late, 0.99))
	r.info = append(r.info, fmt.Sprintf("churn_read: %d reads of each artifact, %d writes over %.1f s",
		len(cl.table2), len(cl.writes), r.opsElapsed.Seconds()))

	if e.trace {
		if err := churnLayers(ctx, e, client, live, final, r); err != nil {
			return nil, err
		}
	}
	r.heapLive = heapLiveMB()
	return r, nil
}

// churnSamples are the per-request latencies of one churn window.
type churnSamples struct {
	table2, mitigations []time.Duration
	// writes are timed from when each write was due; late is how far behind
	// schedule the writer sent it.
	writes, late []time.Duration
}

// churnLoad runs the writer on its schedule and the reader until the
// writer is done. Each read pair is one operation.
func churnLoad(ctx context.Context, e *env, c *http.Client, base string, writes []upload, r *report) churnSamples {
	var cl churnSamples
	interval := time.Duration(float64(time.Second) / e.sz.writeRate)
	done := make(chan struct{})
	var wg sync.WaitGroup
	var writeFailed int
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wctx, sp := e.spans.StartSpan(ctx, "bench", "writer")
		defer sp.End()
		for k, w := range writes {
			due := start.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			cl.late = append(cl.late, time.Since(due))
			var err error
			e.timed(wctx, "write", func(ctx context.Context) { _, err = post(ctx, c, base, w) })
			if err != nil {
				writeFailed++
				fmt.Fprintln(os.Stderr, "bench: churn_read:", err)
				continue
			}
			cl.writes = append(cl.writes, time.Since(due))
		}
	}()

	rctx, sp := e.spans.StartSpan(ctx, "bench", "reader")
	reads, readFailed := 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false
			continue
		default:
		}
		var t2, tm time.Duration
		var err error
		// The calibration reading after each pair runs on this goroutine while
		// the writer goes on; the server handles no read meanwhile.
		pair, norm := e.timedNorm(rctx, "read", func(ctx context.Context) {
			t2 = e.timed(ctx, "table2", func(ctx context.Context) { _, err = get(ctx, c, base, "/v1/artifacts/table2") })
			if err != nil {
				return
			}
			tm = e.timed(ctx, "mitigations", func(ctx context.Context) { _, err = get(ctx, c, base, "/v1/artifacts/mitigations") })
		})
		reads++
		if err != nil {
			readFailed++
			fmt.Fprintln(os.Stderr, "bench: churn_read:", err)
			continue
		}
		r.ops, r.opsNorm = append(r.ops, pair), append(r.opsNorm, norm)
		cl.table2 = append(cl.table2, t2)
		cl.mitigations = append(cl.mitigations, tm)
	}
	sp.End()
	wg.Wait()
	r.opsElapsed = time.Since(start)
	r.attempted = reads + len(writes)
	r.failed = readFailed + writeFailed
	return cl
}

// churnLayers rebuilds the server's eight shard aggregates from outside —
// folding every household's partial into its engine.ShardOf shard — and
// times the read path on them: clone every shard, merge, render. The
// ledger residual is one read pair minus those six steps.
func churnLayers(ctx context.Context, e *env, c *http.Client, live *server, fleet []*inspector.Household, r *report) error {
	ent := make([]*analysis.EntropyPartial, shards)
	mit := make([]*analysis.MitigationPartial, shards)
	for i := range ent {
		ent[i], mit[i] = analysis.NewEntropyPartial(), analysis.NewMitigationPartial()
	}
	parts := make([]*analysis.HouseholdPartial, len(fleet))
	var partialTime, subTime, httpTime time.Duration
	for i, h := range fleet {
		partialTime += e.timed(ctx, "analysis.household_partial", func(context.Context) { parts[i] = analysis.HouseholdPartialOf(h) })
		s := engine.ShardOf(h.ID, shards)
		ent[s].Add(parts[i].Entropy)
		mit[s].Add(parts[i].Mitigations)
	}
	n := min(e.sz.replays, len(fleet))
	for i, h := range fleet[:n] {
		s := engine.ShardOf(h.ID, shards)
		subTime += e.timed(ctx, "analysis.partial_sub", func(context.Context) {
			ent[s].Sub(parts[i].Entropy)
			mit[s].Sub(parts[i].Mitigations)
		})
		ent[s].Add(parts[i].Entropy)
		mit[s].Add(parts[i].Mitigations)
	}
	for i := 0; i < n; i++ {
		var err error
		httpTime += e.timed(ctx, "http.roundtrip", func(ctx context.Context) { _, err = get(ctx, c, live.base, "/healthz") })
		if err != nil {
			return err
		}
	}
	r.layers["analysis.household_partial_us"] = us(partialTime) / float64(len(fleet))
	r.layers["analysis.partial_sub_us"] = us(subTime) / float64(n)
	r.layers["http.roundtrip_us"] = us(httpTime) / float64(n)

	var ledger time.Duration
	record := func(prefix string, steps [3]time.Duration) {
		r.layers["analysis."+prefix+"_clone_ms"] = ms(steps[0])
		r.layers["analysis."+prefix+"_merge_ms"] = ms(steps[1])
		r.layers["iotlan."+prefix+"_render_ms"] = ms(steps[2])
		ledger += steps[0] + steps[1] + steps[2]
	}
	record("entropy", readPath(ctx, e, "entropy", ent, (*analysis.EntropyPartial).Clone,
		analysis.MergeEntropy, iotlan.EntropyResult))
	record("mitigation", readPath(ctx, e, "mitigation", mit, (*analysis.MitigationPartial).Clone,
		analysis.MergeMitigations, iotlan.MitigationResult))
	r.layers["churn_read.residual_ms"] = ms(mean(r.ops) - ledger)
	return nil
}

// readPath times one sharded artifact's read the way the server does it:
// clone every shard's aggregate, merge the clones, render the rows. It
// returns the median of five runs of each step.
func readPath[P, R any](ctx context.Context, e *env, name string, aggs []P,
	clone func(P) P, merge func([]P) R, render func(R) iotlan.Result) [3]time.Duration {
	const reps = 5
	var steps [3][]time.Duration
	for rep := 0; rep < reps; rep++ {
		clones := make([]P, len(aggs))
		var rows R
		steps[0] = append(steps[0], e.timed(ctx, name+".clone", func(context.Context) {
			for i, a := range aggs {
				clones[i] = clone(a)
			}
		}))
		steps[1] = append(steps[1], e.timed(ctx, name+".merge", func(context.Context) { rows = merge(clones) }))
		steps[2] = append(steps[2], e.timed(ctx, name+".render", func(context.Context) { render(rows) }))
	}
	return [3]time.Duration{median(steps[0]), median(steps[1]), median(steps[2])}
}
