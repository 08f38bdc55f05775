package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/serve"
	"iotlan/internal/serve/store"
)

// shards is cmd/iotserve's default fleet shard count.
const shards = 8

// loadChunk is how many households an ingest load posts between two
// calibration readings: about a third of a second on the reference host.
const loadChunk = 625

// runIngest is durable ingest, in trials. Each trial recovers a durable
// fleet (checkpoint plus WAL tail) with serve.Open — the set-up — then
// uploads new households as wire + pcap bodies over two closed-loop
// connections, followed by a duplicate tail. Trials repeat until the window
// has passed (at least setupReps of them), so the work per trial, the fleet
// and the heap stay the same however fast the server is. The write path
// does the work: HTTP, decode, fold, WAL, checkpoint, capture analysis and
// the result cache; no artifact is read until a load ends. The fleet
// outgrows the 4096-entry result cache.
func runIngest(e *env) (*report, error) {
	r := newReport()
	ctx, root := e.spans.StartSpan(context.Background(), "bench", "ingest")
	defer root.End()
	sz := e.sz

	hhs := households(worldSeed, e.seed, sz.preload+sz.newHouseholds)
	img := newDurableImage(hhs[:sz.preload], sz.checkpointed)
	uploads, err := ingestUploads(hhs[sz.preload:], sz.dupFrac)
	if err != nil {
		return nil, err
	}
	ref := offlineReference(hhs)

	// The two connections and the server keep every processor busy.
	e.calib = newCalibrator(runtime.GOMAXPROCS(0))
	client := newClient()
	defer client.CloseIdleConnections()
	var live *server
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	var liveDir string
	retries := 0
	watch := watchRuntime()
	start := time.Now()
	for trial := 0; ; trial++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("trial-%d", trial))
		if err := img.write(dir); err != nil {
			return nil, err
		}
		var srv *serve.Server
		_, setup := e.timedNorm(ctx, "setup.recover", func(context.Context) { srv, err = serve.Open(serverConfig(dir)) })
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		if live, err = listen(srv); err != nil {
			srv.Close()
			return nil, err
		}
		liveDir = dir
		// The load pauses every loadChunk households for a calibration reading;
		// each chunk's latencies are normalized by the readings around it.
		for lo := 0; lo < len(uploads); lo += loadChunk {
			before := e.calib.last
			lats, n := loadUploads(ctx, e, client, live.base, uploads[lo:min(lo+loadChunk, len(uploads))], r)
			after := e.calib.read()
			for _, d := range lats {
				r.ops, r.opsNorm = append(r.ops, d), append(r.opsNorm, scale(d, before, after))
			}
			retries += n
		}
		r.gate(servedGate(ctx, client, live, ref, fmt.Sprintf("after load %d", trial)))
		if trial+1 >= sz.setupReps && time.Since(start) >= sz.window {
			break
		}
		live.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	watch.end(r.layers)

	reg := live.srv.Registry()
	r.layers["serve.cache_hit_ratio"] = ratio(reg.CounterValue("serve_cache{result=hit}"), reg.Total("serve_cache"))
	r.layers["serve.refold_skip_ratio"] = ratio(reg.CounterValue("serve_refold{result=skipped}"), reg.Total("serve_refold"))
	r.layers["serve.cache_full"] = float64(reg.Total("serve_cache_full"))
	r.layers["store.checkpoints"] = float64(reg.Total("serve_checkpoints"))
	r.layers["serve.retry_429_ratio"] = ratio(uint64(retries), uint64(r.attempted))
	r.layers["client.upload_p99_ms"] = ms(quantile(r.ops, 0.99))

	// Restart the last trial's server: Close writes the final checkpoint,
	// Open recovers it, and the recovered fleet must answer as before.
	live.close()
	var srv *serve.Server
	recoverTime := e.timed(ctx, "recover", func(context.Context) { srv, err = serve.Open(serverConfig(liveDir)) })
	if err != nil {
		return nil, err
	}
	if live, err = listen(srv); err != nil {
		srv.Close()
		return nil, err
	}
	r.gate(servedGate(ctx, client, live, ref, "after recovery"))
	r.gate(selfCheckGate(live, "after recovery"))
	r.info = append(r.info, fmt.Sprintf("ingest: %d trials of %d households (wire + pcap, %d 429 retries), %d served, restart after load %.3f s",
		len(r.setups), len(uploads), retries, len(hhs), recoverTime.Seconds()))

	if e.trace {
		if err := ingestLayers(ctx, e, client, live, hhs, uploads, img, reg, r); err != nil {
			return nil, err
		}
	}
	// The corpus is dead from here on, so the live heap is the server's.
	r.heapLive = heapLiveMB()
	return r, nil
}

// householdUpload is one household's uploads: its inspector wire record and
// its synthesized capture, posted back to back as one operation.
type householdUpload struct{ wire, capture upload }

// ingestUploads encodes each household's uploads, then appends a tail
// re-posting dupFrac of them.
func ingestUploads(hhs []*inspector.Household, dupFrac float64) ([]householdUpload, error) {
	errs := make([]error, len(hhs))
	ups := engine.Map(0, len(hhs), func(i int) householdUpload {
		h := hhs[i]
		var buf bytes.Buffer
		errs[i] = pcap.WriteFile(&buf, inspector.SyntheticCapture(h))
		return householdUpload{
			wire:    upload{"/v1/ingest/inspector", wireBody(h)},
			capture: upload{"/v1/households/" + h.ID + "/capture", buf.Bytes()},
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The duplicates are spread evenly over the trial's households, so the
	// ones posted after the result cache filled miss it.
	orig := len(ups)
	n := int(dupFrac * float64(orig))
	for i := 0; i < n; i++ {
		ups = append(ups, ups[i*orig/n])
	}
	return ups, nil
}

// loadUploads posts every household's uploads in order over two
// closed-loop connections. It returns each household's latency, 429
// retries included, and the number of 429 retries; failures go into r.
func loadUploads(ctx context.Context, e *env, c *http.Client, base string, uploads []householdUpload, r *report) ([]time.Duration, int) {
	var next atomic.Int64
	var mu sync.Mutex
	var all []time.Duration
	retries := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, sp := e.spans.StartSpan(ctx, "bench", fmt.Sprintf("uploader-%d", w))
			defer sp.End()
			var lats []time.Duration
			failed, retried := 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(uploads) {
					break
				}
				var err error
				d := e.timed(wctx, "household", func(ctx context.Context) {
					for _, u := range []upload{uploads[i].wire, uploads[i].capture} {
						var n int
						n, err = post(ctx, c, base, u)
						retried += n
						if err != nil {
							return
						}
					}
				})
				if err != nil {
					failed++
					fmt.Fprintln(os.Stderr, "bench: ingest:", err)
					continue
				}
				lats = append(lats, d)
			}
			mu.Lock()
			all = append(all, lats...)
			r.failed += failed
			retries += retried
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.opsElapsed += time.Since(start)
	r.attempted += len(uploads)
	return all, retries
}

// durableImage is a fleet in iotserve's on-disk form: one checkpoint
// covering the first households, sharded as serve shards them, and a WAL
// segment holding the rest — the state a server leaves between checkpoints.
type durableImage struct {
	blobs        [][]byte
	tail         [][]byte
	checkpointed int
}

func newDurableImage(hhs []*inspector.Household, checkpointed int) durableImage {
	per := make([][]*inspector.Household, shards)
	for _, h := range hhs[:checkpointed] {
		i := engine.ShardOf(h.ID, shards)
		per[i] = append(per[i], h)
	}
	img := durableImage{blobs: make([][]byte, shards), checkpointed: checkpointed}
	for i, part := range per {
		img.blobs[i] = wireBody(part...)
	}
	for _, h := range hhs[checkpointed:] {
		p, err := json.Marshal(h.Wire())
		if err != nil {
			panic(err) // wire records are plain data and always marshal
		}
		img.tail = append(img.tail, p)
	}
	return img
}

// write materializes the image in dir: the checkpoint labeled segment 1,
// then segment 1 itself with the tail records.
func (img durableImage) write(dir string) error {
	if err := store.WriteCheckpoint(dir, 1, img.blobs, img.checkpointed); err != nil {
		return err
	}
	log, err := store.OpenLog(dir, store.SyncNone)
	if err != nil {
		return err
	}
	for _, p := range img.tail {
		if err := log.Append(p); err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

// ingestLayers replays the uploaded bodies single-threaded through each
// layer the write path crosses, timing every call, and derives the ledger:
// the mean upload latency minus the layer time an upload spends on average
// (from the load server's counters). What remains is HTTP, queueing, locks
// and scheduling.
func ingestLayers(ctx context.Context, e *env, c *http.Client, live *server, hhs []*inspector.Household,
	uploads []householdUpload, img durableImage, loadReg *obs.Registry, r *report) error {
	n := min(e.sz.replays, e.sz.newHouseholds)
	calls := func(metric string, fn func(ctx context.Context, i int) error) error {
		var total time.Duration
		var err error
		for i := 0; i < n && err == nil; i++ {
			total += e.timed(ctx, metric, func(ctx context.Context) { err = fn(ctx, i) })
		}
		r.layers[metric] = us(total) / float64(n)
		return err
	}

	decoded := make([]*inspector.Household, n)
	partials := make([]*analysis.HouseholdPartial, n)
	records := make([][]pcap.Record, n)
	agg := analysis.HouseholdPartial{Entropy: analysis.NewEntropyPartial(), Mitigations: analysis.NewMitigationPartial()}
	walDir := filepath.Join(e.dir, "wal-replay")
	wal, err := store.OpenLog(walDir, store.SyncGroup)
	if err != nil {
		return err
	}
	defer wal.Close()
	steps := []struct {
		metric string
		fn     func(ctx context.Context, i int) error
	}{
		{"inspector.decode_us", func(_ context.Context, i int) (err error) {
			decoded[i], err = inspector.NewWireDecoder(bytes.NewReader(uploads[i].wire.body)).Next()
			return err
		}},
		{"inspector.content_hash_us", func(_ context.Context, i int) error { decoded[i].ContentHash(); return nil }},
		{"analysis.household_partial_us", func(_ context.Context, i int) error {
			partials[i] = analysis.HouseholdPartialOf(decoded[i])
			return nil
		}},
		{"analysis.partial_add_us", func(_ context.Context, i int) error {
			agg.Entropy.Add(partials[i].Entropy)
			agg.Mitigations.Add(partials[i].Mitigations)
			return nil
		}},
		{"store.wal_append_us", func(_ context.Context, i int) error {
			p, err := json.Marshal(decoded[i].Wire())
			if err != nil {
				return err
			}
			return wal.Append(p)
		}},
		{"pcap.decode_us", func(_ context.Context, i int) error {
			rd, err := pcap.NewReader(bytes.NewReader(uploads[i].capture.body))
			if err != nil {
				return err
			}
			for {
				rec, err := rd.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				records[i] = append(records[i], rec)
			}
		}},
		{"pcap.index_us", func(_ context.Context, i int) error {
			analysis.BuildExposure(pcap.NewIndex(records[i], 1).Records)
			return nil
		}},
		{"http.roundtrip_us", func(ctx context.Context, _ int) error {
			_, err := get(ctx, c, live.base, "/healthz")
			return err
		}},
	}
	for _, s := range steps {
		if err := calls(s.metric, s.fn); err != nil {
			return fmt.Errorf("%s replay: %w", s.metric, err)
		}
	}

	// A checkpoint of the whole final fleet, as the server would write it.
	fleet := newDurableImage(hhs, len(hhs))
	var ckpts []time.Duration
	for i := 0; i < 3; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("ckpt-replay-%d", i))
		var err error
		ckpts = append(ckpts, e.timed(ctx, "store.checkpoint", func(context.Context) {
			err = store.WriteCheckpoint(dir, 1, fleet.blobs, fleet.checkpointed)
		}))
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.layers["store.checkpoint_ms"] = ms(median(ckpts))

	replayDir := filepath.Join(e.dir, "replay")
	if err := img.write(replayDir); err != nil {
		return err
	}
	var replayErr error
	r.layers["store.replay_s"] = e.timed(ctx, "store.replay", func(context.Context) {
		_, replayErr = store.ReplayLog(replayDir, 1, func([]byte) error { return nil })
	}).Seconds()
	if replayErr != nil {
		return replayErr
	}
	r.layers["serve.selfcheck_s"] = e.timed(ctx, "serve.selfcheck", func(context.Context) { live.srv.SelfCheck() }).Seconds()

	// Layer time per upload, from what the load server counted.
	l := r.layers
	count := func(key string) float64 { return float64(loadReg.CounterValue(key)) }
	folded, skipped := count("serve_refold{result=folded}"), count("serve_refold{result=skipped}")
	posted := float64(len(uploads)) // each household posts one wire and one capture body
	layerUS := posted*l["inspector.decode_us"] +
		(folded+skipped)*l["inspector.content_hash_us"] +
		folded*(l["analysis.household_partial_us"]+l["analysis.partial_add_us"]) +
		count("serve_wal_appends")*l["store.wal_append_us"] +
		posted*l["pcap.decode_us"] +
		count("serve_uploads{kind=capture}")*l["pcap.index_us"]
	r.layers["ingest.residual_ms"] = ms(mean(r.ops)) - layerUS/float64(len(uploads))/1000
	return nil
}
