// Command iotload drives iotserve with synthesized households and writes a
// bench record (BENCH_5.json by default): upload throughput, latency
// percentiles, per-stage server-side quantiles scraped from /metrics, and
// the determinism gate — after all uploads land, the server's fleet Table 2
// must checksum identically to the offline Study pipeline over the same
// generated dataset.
//
// With no -addr it self-hosts an in-process serve.Server on a real
// 127.0.0.1 TCP listener, so `make bench5` is a single command; -addr
// points it at an external iotserve instead (the determinism gate then
// requires the server to have ingested exactly this load).
//
// Every upload honors backpressure: a 429 answer sleeps the Retry-After
// hint and retries, so the "dropped" count is zero unless the server
// refuses an upload for a non-backpressure reason. -dup-frac re-posts a
// fraction of the upload set after the originals: re-posted captures
// exercise the server's content-hash cache (the bench record counts the
// observed hits), and re-posted wire records the fold's idempotent skip.
//
// -diurnal shapes each synthetic capture's frame timestamps by the resident
// layer's typical hour-of-day histogram (resident.TypicalHours) instead of
// the flat one-frame-burst-per-second layout, so uploaded captures carry the
// diurnal structure of a lived-in household. Off by default so classic bench
// checksums are unchanged.
//
// After the load, iotload scrapes GET /metrics and strict-parses the
// Prometheus exposition (the same parser the obs golden tests use). A
// malformed page or empty per-stage histograms fail the run — observability
// regressions break the bench, not just dashboards.
//
// -stream switches to streamed generation for very large fleets (the
// BENCH_6 gate runs ≥100k households): uploaders draw each household on
// demand from inspector.Generator instead of materializing the corpus, and
// the offline side of the determinism gate folds batched entropy partials
// (analysis.EntropyPartialOf + MergeEntropy) so neither side ever holds the
// full fleet. -shards sizes the self-hosted server's fleet sharding, and
// -data-dir makes it durable (WAL + checkpoints), so one command exercises
// the full sharded/durable ingest path.
//
// Usage:
//
//	iotload [-households 200] [-concurrency 16] [-seed 1]
//	        [-mode mixed|inspector|capture] [-dup-frac 0.25] [-diurnal]
//	        [-addr host:port] [-queue 64] [-workers N] [-shards N]
//	        [-data-dir DIR] [-checkpoint-every 4096] [-stream]
//	        [-out BENCH_5.json]
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/resident"
	"iotlan/internal/serve"
)

// benchRecord is the bench JSON schema. Wall-clock and percentile fields
// vary run to run; uploads/dropped/identical/checksum are the gates.
type benchRecord struct {
	Seed          int64   `json:"seed"`
	Households    int     `json:"households"`
	Concurrency   int     `json:"concurrency"`
	Mode          string  `json:"mode"`
	DupFrac       float64 `json:"dup_frac"`
	Shards        int     `json:"shards,omitempty"`
	Stream        bool    `json:"stream,omitempty"`
	Uploads       int     `json:"uploads"`
	Retries429    int     `json:"retries_429"`
	Dropped       int     `json:"dropped"`
	CacheHits     int     `json:"cache_hits"`
	WallMS        float64 `json:"wall_ms"`
	UploadsPerSec float64 `json:"uploads_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	// StageQuantiles is the server's own view of where upload time went,
	// read back from the /metrics exposition's serve_stage_ms histograms.
	StageQuantiles map[string]stageQuantiles `json:"stage_quantiles_ms,omitempty"`
	// Identical asserts the serving determinism contract: fleet Table 2 from
	// the concurrently-loaded server checksums equal to the offline Study.
	Identical      bool   `json:"identical"`
	ChecksumSHA256 string `json:"checksum_sha256"`
}

// stageQuantiles is one pipeline stage's scraped latency distribution.
type stageQuantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// upload is one queued HTTP POST.
type upload struct {
	path string
	body []byte
}

// outcome is one upload's accounting.
type outcome struct {
	latency  time.Duration
	retries  int
	dropped  bool
	cacheHit bool
}

func main() {
	households := flag.Int("households", 200, "households to synthesize and upload")
	concurrency := flag.Int("concurrency", 16, "concurrent uploaders")
	seed := flag.Int64("seed", 1, "generation seed")
	mode := flag.String("mode", "mixed", "upload mix: inspector, capture, or mixed (both per household)")
	dupFrac := flag.Float64("dup-frac", 0.25, "fraction of the upload set re-posted after the originals (capture cache and idempotent refold exercise)")
	addr := flag.String("addr", "", "target server (empty = self-host in process)")
	workers := flag.Int("workers", 0, "self-hosted server workers (0 = one per CPU)")
	queue := flag.Int("queue", 64, "self-hosted server queue capacity")
	shards := flag.Int("shards", 0, "self-hosted server fleet shards (0 = server default)")
	dataDir := flag.String("data-dir", "", "self-hosted server durable state dir (empty = in-memory)")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "self-hosted server checkpoint cadence in WAL records")
	stream := flag.Bool("stream", false, "generate each household on demand instead of materializing the corpus (inspector mode only)")
	diurnal := flag.Bool("diurnal", false, "spread synthetic capture frames over a resident-shaped hour-of-day distribution (capture/mixed modes)")
	out := flag.String("out", "BENCH_5.json", "output file (\"-\" for stdout)")
	flag.Parse()
	if *mode != "inspector" && *mode != "capture" && *mode != "mixed" {
		fmt.Fprintf(os.Stderr, "iotload: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if *dupFrac < 0 || *dupFrac > 1 {
		fmt.Fprintf(os.Stderr, "iotload: -dup-frac %v outside [0,1]\n", *dupFrac)
		os.Exit(2)
	}
	if *stream && *mode != "inspector" {
		fmt.Fprintln(os.Stderr, "iotload: -stream requires -mode inspector")
		os.Exit(2)
	}

	base := *addr
	if base == "" {
		srv, err := serve.Open(serve.Config{
			Workers: *workers, QueueCapacity: *queue, Shards: *shards,
			DataDir: *dataDir, CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "iotload:", err)
			os.Exit(1)
		}
		httpSrv := serve.NewHTTPServer("", srv.Mux())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "iotload:", err)
			os.Exit(1)
		}
		go httpSrv.Serve(ln)
		defer func() {
			httpSrv.Close()
			srv.Close()
		}()
		base = ln.Addr().String()
		fmt.Printf("iotload: self-hosted iotserve on %s\n", base)
	}
	base = "http://" + base

	client := &http.Client{Timeout: 2 * time.Minute}
	var wg sync.WaitGroup
	var uploadCount int
	var results chan outcome
	gen := inspector.NewGenerator(*seed)
	start := time.Now()
	if *stream {
		// Streamed load: uploaders draw households on demand — index i
		// beyond the fleet re-uploads household i mod fleet (the duplicate
		// tail), encoding at post time so memory stays flat at any scale.
		nDup := int(*dupFrac * float64(*households))
		uploadCount = *households + nDup
		results = make(chan outcome, uploadCount)
		work := make(chan int)
		for i := 0; i < *concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range work {
					h := gen.Household(idx % *households)
					var buf bytes.Buffer
					if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
						fatal(err)
					}
					results <- post(client, base, upload{path: "/v1/ingest/inspector", body: buf.Bytes()})
				}
			}()
		}
		for i := 0; i < uploadCount; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	} else {
		// Build the upload set up front so the timed region is pure load.
		ds := inspector.Generate(*seed, *households)
		var hours [24]int
		if *diurnal {
			hours = resident.TypicalHours(*seed)
		}
		var uploads []upload
		for _, h := range ds.Households {
			if *mode == "inspector" || *mode == "mixed" {
				var buf bytes.Buffer
				if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
					fatal(err)
				}
				uploads = append(uploads, upload{path: "/v1/ingest/inspector", body: buf.Bytes()})
			}
			if *mode == "capture" || *mode == "mixed" {
				var buf bytes.Buffer
				if err := pcap.WriteFile(&buf, inspector.SyntheticCaptureHours(h, hours)); err != nil {
					fatal(err)
				}
				uploads = append(uploads, upload{
					path: fmt.Sprintf("/v1/households/%s/capture", h.ID),
					body: buf.Bytes(),
				})
			}
		}
		// Duplicates go after the originals, so by the time one is posted its
		// original has (almost always) landed: a capture's is answered from
		// the content-hash cache, a wire record's folds nothing.
		nDup := int(*dupFrac * float64(len(uploads)))
		for i := 0; i < nDup; i++ {
			uploads = append(uploads, uploads[i%len(uploads)])
		}
		uploadCount = len(uploads)
		results = make(chan outcome, uploadCount)
		work := make(chan upload)
		start = time.Now()
		for i := 0; i < *concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range work {
					results <- post(client, base, u)
				}
			}()
		}
		for _, u := range uploads {
			work <- u
		}
		close(work)
		wg.Wait()
	}
	wall := time.Since(start)
	close(results)

	rec := benchRecord{
		Seed:        *seed,
		Households:  *households,
		Concurrency: *concurrency,
		Mode:        *mode,
		DupFrac:     *dupFrac,
		Shards:      *shards,
		Stream:      *stream,
		WallMS:      float64(wall) / float64(time.Millisecond),
	}
	var lats []time.Duration
	for o := range results {
		rec.Uploads++
		rec.Retries429 += o.retries
		if o.dropped {
			rec.Dropped++
		}
		if o.cacheHit {
			rec.CacheHits++
		}
		lats = append(lats, o.latency)
	}
	if s := wall.Seconds(); s > 0 {
		rec.UploadsPerSec = float64(rec.Uploads) / s
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rec.P50MS = percentileMS(lats, 0.50)
	rec.P95MS = percentileMS(lats, 0.95)
	rec.P99MS = percentileMS(lats, 0.99)

	// Determinism gate: the loaded server's fleet Table 2 vs the offline
	// pipeline over the identical corpus, compared by checksum.
	// Capture-only load ingests no inspector corpus, so the gate only
	// applies when wire uploads happened.
	if *mode != "capture" {
		served, err := fetchArtifact(client, base, "table2")
		if err != nil {
			fatal(err)
		}
		offline, err := offlineTable2(gen, *seed, *households, *stream)
		if err != nil {
			fatal(err)
		}
		servedSum := checksum(served)
		rec.Identical = servedSum == checksum(offline)
		rec.ChecksumSHA256 = servedSum
	} else {
		rec.Identical = true
	}

	// Read back the server's own stage accounting from /metrics. A page the
	// strict parser refuses, or stage histograms that saw no samples, fail
	// the bench outright.
	sq, err := scrapeStageQuantiles(client, base)
	if err != nil {
		fatal(err)
	}
	rec.StageQuantiles = sq

	writeJSON(rec, *out)
	fmt.Printf("bench: %d uploads at concurrency %d in %.0f ms (%.0f/sec, %d retries, %d dropped, %d cache hits), p50 %.1f ms p95 %.1f ms p99 %.1f ms, identical=%v → %s\n",
		rec.Uploads, rec.Concurrency, rec.WallMS, rec.UploadsPerSec, rec.Retries429, rec.Dropped,
		rec.CacheHits, rec.P50MS, rec.P95MS, rec.P99MS, rec.Identical, *out)
	if rec.Dropped > 0 {
		fmt.Fprintln(os.Stderr, "bench: uploads dropped — backpressure contract violated")
		os.Exit(1)
	}
	if !rec.Identical {
		fmt.Fprintln(os.Stderr, "bench: served fleet artifact diverged from offline pipeline")
		os.Exit(1)
	}
}

// offlineTable2 computes the gate's reference Table 2. The materialized path
// runs the full offline Study; the streamed path folds batched entropy
// partials so it never holds the corpus — partition-invariant merging
// (internal/analysis/partial.go) makes the two renderings byte-identical.
func offlineTable2(gen *inspector.Generator, seed int64, households int, stream bool) (iotlan.Result, error) {
	if !stream {
		study := iotlan.New(0, iotlan.WithHouseholds(households))
		study.Inspector = inspector.Generate(seed, households)
		return study.RunArtifact("table2")
	}
	const batch = 4096
	var parts []*analysis.EntropyPartial
	for lo := 0; lo < households; lo += batch {
		n := batch
		if households-lo < n {
			n = households - lo
		}
		hhs := make([]*inspector.Household, n)
		for j := range hhs {
			hhs[j] = gen.Household(lo + j)
		}
		parts = append(parts, analysis.EntropyPartialOf(hhs, nil))
	}
	return iotlan.EntropyResult(analysis.MergeEntropy(parts)), nil
}

// scrapeStageQuantiles fetches /metrics, strict-parses the exposition, and
// interpolates p50/p95/p99 for every serve_stage_ms series from its
// cumulative buckets — server-side truth, not client-observed latency.
func scrapeStageQuantiles(client *http.Client, base string) (map[string]stageQuantiles, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	samples, _, err := obs.ParsePrometheus(string(body))
	if err != nil {
		return nil, fmt.Errorf("/metrics exposition invalid: %v", err)
	}
	buckets := map[string]map[float64]float64{}
	counts := map[string]uint64{}
	for _, s := range samples {
		stage := s.Labels["stage"]
		switch s.Name {
		case "serve_stage_ms_bucket":
			le, err := obs.ParsePromFloat(s.Labels["le"])
			if err != nil {
				return nil, fmt.Errorf("/metrics: bad le on stage %q: %v", stage, err)
			}
			if buckets[stage] == nil {
				buckets[stage] = map[float64]float64{}
			}
			buckets[stage][le] = s.Value
		case "serve_stage_ms_count":
			counts[stage] = uint64(s.Value)
		}
	}
	if len(buckets) == 0 {
		return nil, fmt.Errorf("/metrics carries no serve_stage_ms histograms")
	}
	// Every upload, whatever its kind, passes through these stages; if one
	// of them recorded nothing the instrumentation is broken. Kind-specific
	// stages (pcap.decode and cache.lookup vs inspector.decode,
	// artifact.build) may legitimately be idle and are simply omitted from
	// the record.
	for _, stage := range []string{"queue.wait", "body.read", "analysis"} {
		if counts[stage] == 0 {
			return nil, fmt.Errorf("/metrics: stage %q histogram empty after load", stage)
		}
	}
	out := make(map[string]stageQuantiles, len(buckets))
	for stage, b := range buckets {
		if counts[stage] == 0 {
			continue
		}
		out[stage] = stageQuantiles{
			Count: counts[stage],
			P50:   obs.PromHistogramQuantile(b, 0.50),
			P95:   obs.PromHistogramQuantile(b, 0.95),
			P99:   obs.PromHistogramQuantile(b, 0.99),
		}
	}
	return out, nil
}

// post sends one upload, honoring backpressure by sleeping the server's
// retry hint and retrying. The hint comes from the unified error envelope's
// retry_after_ms (every 4xx/5xx carries it), with the Retry-After header as
// the fallback for proxies that strip bodies. A shed 429 always retries; any
// other failure retries only if the envelope says it is worth it.
func post(client *http.Client, base string, u upload) outcome {
	var o outcome
	start := time.Now()
	for {
		resp, err := client.Post(base+u.path, "application/octet-stream", bytes.NewReader(u.body))
		if err != nil {
			o.dropped = true
			o.latency = time.Since(start)
			return o
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			o.cacheHit = resp.Header.Get("X-Cache") == "hit"
			o.latency = time.Since(start)
			return o
		}
		hint := retryHint(resp, body)
		if resp.StatusCode != http.StatusTooManyRequests && hint <= 0 {
			o.dropped = true
			o.latency = time.Since(start)
			return o
		}
		o.retries++
		// Sleep a fraction of the hint with jitter-free backoff: the hint is
		// a ceiling for politeness, not a mandatory stall.
		time.Sleep(hint / 4)
	}
}

// retryHint extracts the server's backoff hint: envelope retry_after_ms
// first, Retry-After header second, one second as the 429 floor.
func retryHint(resp *http.Response, body []byte) time.Duration {
	var env struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.RetryAfterMS > 0 {
		return time.Duration(env.RetryAfterMS) * time.Millisecond
	}
	if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); secs > 0 {
		return time.Duration(secs) * time.Second
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return time.Second
	}
	return 0
}

// fetchArtifact pulls a fleet artifact and reshapes it as an iotlan.Result
// for checksumming.
func fetchArtifact(client *http.Client, base, name string) (iotlan.Result, error) {
	var r iotlan.Result
	resp, err := client.Get(base + "/v1/artifacts/" + name)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("artifact %s: status %d: %s", name, resp.StatusCode, body)
	}
	var rep struct {
		ID       string             `json:"id"`
		Rendered string             `json:"rendered"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return r, err
	}
	return iotlan.Result{ID: rep.ID, Rendered: rep.Rendered, Metrics: rep.Metrics}, nil
}

// checksum hashes a result's ID, rendition and sorted metrics.
func checksum(r iotlan.Result) string {
	h := sha256.New()
	io.WriteString(h, r.ID)
	io.WriteString(h, "\x00")
	io.WriteString(h, r.Rendered)
	io.WriteString(h, "\x00")
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, r.Metrics[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// percentileMS reads the q-th percentile from sorted latencies.
func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iotload:", err)
	os.Exit(1)
}

func writeJSON(v interface{}, out string) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fatal(err)
	}
}
