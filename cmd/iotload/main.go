// Command iotload drives iotserve with synthesized households and gates the
// result. It prints one key=value summary line (uploads, retries_429,
// dropped, cache_hits, wall_ms, uploads_per_s, p50_ms, p99_ms, identical,
// table2_sha256) and exits 1 when a gate fails:
//
//   - no upload is dropped: a 429 answer sleeps the server's retry hint and
//     retries, so an upload is dropped only when the server refuses it for a
//     non-backpressure reason;
//   - after all uploads land, the server's fleet artifacts, Table 2 and the
//     §7 mitigation sweep, each checksum identically to the offline pipeline
//     over the same generated households (skipped under -mode capture, which
//     uploads no inspector corpus);
//   - the server's /metrics page strict-parses as Prometheus text (the parser
//     the obs golden tests use) and its body.read and analysis stage
//     histograms are populated.
//
// With no -addr it self-hosts an in-process serve.Server on a real
// 127.0.0.1 TCP listener; -addr points it at an external iotserve instead
// (the checksum gate then requires the server to have ingested exactly this
// load). The self-hosted server admits -workers + -queue uploads at once,
// each on its request goroutine, so a -concurrency above that sum sheds load
// (retries_429 > 0) without dropping any. -shards sizes its fleet sharding,
// and -data-dir makes it durable (WAL + checkpoints).
//
// Each household sends one upload per kind of its -mode: a wire record
// (inspector), a pcap capture (capture), or both in that order (mixed).
// Uploaders build each upload when they take it, drawing the household from
// inspector.Generator, and the offline gate folds batched partials with Add,
// so neither side holds the whole fleet and memory stays flat at any size.
// -dup-frac re-posts a fraction of the upload set after the originals:
// re-posted captures exercise the server's content-hash cache (cache_hits
// counts the observed hits), and re-posted wire records the fold's
// idempotent skip.
//
// Usage:
//
//	iotload [-households 200] [-concurrency 16] [-seed 1]
//	        [-mode mixed|inspector|capture] [-dup-frac 0.25]
//	        [-addr host:port] [-queue 64] [-workers N] [-shards N]
//	        [-data-dir DIR] [-checkpoint-every 4096]
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
	"iotlan/internal/serve"
)

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

// modeKinds lists, per -mode, the upload kinds each household sends.
var modeKinds = map[string][]string{
	"inspector": {"inspector"},
	"capture":   {"capture"},
	"mixed":     {"inspector", "capture"},
}

func main() {
	households := flag.Int("households", 200, "households to synthesize and upload")
	concurrency := flag.Int("concurrency", 16, "concurrent uploaders")
	seed := flag.Int64("seed", 1, "generation seed")
	mode := flag.String("mode", "mixed", "upload mix: inspector, capture, or mixed (both per household)")
	dupFrac := flag.Float64("dup-frac", 0.25, "fraction of the upload set re-posted after the originals (capture cache and idempotent refold exercise)")
	addr := flag.String("addr", "", "target server (empty = self-host in process)")
	workers := flag.Int("workers", 0, "self-hosted server workers (0 = one per CPU)")
	queue := flag.Int("queue", 64, "self-hosted server uploads admitted beyond -workers")
	shards := flag.Int("shards", 0, "self-hosted server fleet shards (0 = server default)")
	dataDir := flag.String("data-dir", "", "self-hosted server durable state dir (empty = in-memory)")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "self-hosted server checkpoint cadence in WAL records")
	flag.Parse()
	kinds, ok := modeKinds[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "iotload: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if *dupFrac < 0 || *dupFrac > 1 {
		fmt.Fprintf(os.Stderr, "iotload: -dup-frac %v outside [0,1]\n", *dupFrac)
		os.Exit(2)
	}
	if *households < 0 || *concurrency < 1 {
		fmt.Fprintln(os.Stderr, "iotload: -households must be ≥ 0 and -concurrency ≥ 1")
		os.Exit(2)
	}

	base := *addr
	if base == "" {
		srv, err := serve.Open(serve.Config{
			Workers: *workers, QueueCapacity: *queue, Shards: *shards,
			DataDir: *dataDir, CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			fatal(err)
		}
		httpSrv := serve.NewHTTPServer("", srv.Mux())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
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

	// Upload i is kind i mod k of household i/k; the duplicate tail after
	// the originals re-posts upload i mod originals, so by the time one is
	// posted its original has (almost always) landed: a capture's is
	// answered from the content-hash cache, a wire record's folds nothing.
	client := &http.Client{Timeout: 2 * time.Minute}
	gen := inspector.NewGenerator(*seed)
	originals := *households * len(kinds)
	total := originals + int(*dupFrac*float64(originals))
	results := make(chan outcome, total)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for range *concurrency {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				i %= originals
				results <- post(client, base, build(gen.Household(i/len(kinds)), kinds[i%len(kinds)]))
			}
		}()
	}
	for i := range total {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)
	close(results)

	var retries, dropped, cacheHits int
	var lats []time.Duration
	for o := range results {
		retries += o.retries
		if o.dropped {
			dropped++
		}
		if o.cacheHit {
			cacheHits++
		}
		lats = append(lats, o.latency)
	}
	var perSec float64
	if s := wall.Seconds(); s > 0 {
		perSec = float64(total) / s
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	// Checksum gate: the loaded server's fleet artifacts vs the offline
	// pipeline over the identical households.
	identical, table2Sum := true, ""
	if *mode != "capture" {
		offline := offlineFleet(gen, *households)
		for _, name := range fleetArtifacts {
			served, err := fetchArtifact(client, base, name)
			if err != nil {
				fatal(err)
			}
			servedSum := checksum(served)
			if servedSum != checksum(offline[name]) {
				identical = false
				fmt.Fprintf(os.Stderr, "iotload: served %s differs from the offline pipeline's\n", name)
			}
			if name == "table2" {
				table2Sum = servedSum
			}
		}
	}
	metricsErr := checkMetrics(client, base)
	if metricsErr != nil {
		fmt.Fprintln(os.Stderr, "iotload:", metricsErr)
	}
	if dropped > 0 {
		fmt.Fprintln(os.Stderr, "iotload: uploads dropped — backpressure contract violated")
	}

	fmt.Printf("uploads=%d retries_429=%d dropped=%d cache_hits=%d wall_ms=%.0f uploads_per_s=%.0f p50_ms=%.1f p99_ms=%.1f identical=%v table2_sha256=%s\n",
		total, retries, dropped, cacheHits, float64(wall)/float64(time.Millisecond), perSec,
		percentileMS(lats, 0.50), percentileMS(lats, 0.99), identical, table2Sum)
	if dropped > 0 || !identical || metricsErr != nil {
		os.Exit(1)
	}
}

// build encodes one household's upload of the given kind.
func build(h *inspector.Household, kind string) upload {
	var buf bytes.Buffer
	if kind == "inspector" {
		if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
			fatal(err)
		}
		return upload{path: "/v1/ingest/inspector", body: buf.Bytes()}
	}
	if err := pcap.WriteFile(&buf, inspector.SyntheticCapture(h)); err != nil {
		fatal(err)
	}
	return upload{path: fmt.Sprintf("/v1/households/%s/capture", h.ID), body: buf.Bytes()}
}

// fleetArtifacts are the artifacts iotserve computes from uploads, which the
// checksum gate compares.
var fleetArtifacts = []string{"table2", "mitigations"}

// offlineFleet computes the gate's reference fleet artifacts, by name, by
// folding batched entropy and mitigation partials with Add, so it never
// holds the whole fleet; partition-invariant merging
// (internal/analysis/partial.go) makes the result byte-identical to one
// whole-corpus Study pass.
func offlineFleet(gen *inspector.Generator, households int) map[string]iotlan.Result {
	const batch = 4096
	entropy, mitigations := analysis.NewEntropyPartial(), analysis.NewMitigationPartial()
	for lo := 0; lo < households; lo += batch {
		hhs := make([]*inspector.Household, min(batch, households-lo))
		for j := range hhs {
			hhs[j] = gen.Household(lo + j)
		}
		ids := analysis.ExtractIdentifiers(&inspector.Dataset{Households: hhs}, 0)
		entropy.Add(analysis.EntropyPartialOf(hhs, ids))
		mitigations.Add(analysis.MitigationPartialOf(hhs, ids))
	}
	return map[string]iotlan.Result{
		"table2":      iotlan.EntropyResult(entropy.Rows()),
		"mitigations": iotlan.MitigationResult(mitigations.Rows()),
	}
}

// checkMetrics fetches /metrics and strict-parses the exposition. Every
// upload, whatever its kind, passes through the body.read and analysis
// stages, so a page the parser refuses, or either stage's histogram empty
// after the load, means broken instrumentation.
func checkMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	samples, _, err := obs.ParsePrometheus(string(body))
	if err != nil {
		return fmt.Errorf("/metrics exposition invalid: %v", err)
	}
	counts := map[string]float64{}
	for _, s := range samples {
		if s.Name == "serve_stage_ms_count" {
			counts[s.Labels["stage"]] = s.Value
		}
	}
	for _, stage := range []string{"body.read", "analysis"} {
		if counts[stage] == 0 {
			return fmt.Errorf("/metrics: stage %q histogram empty after load", stage)
		}
	}
	return nil
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
