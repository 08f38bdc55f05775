// Package serve is the crowdsourced ingestion-and-analysis service behind
// cmd/iotserve: the production shape the paper's §6.3 pipeline implies (IoT
// Inspector collected 13,487 devices across 3,860 households from continuous
// real-user uploads) built on this repo's analysis engine.
//
// The service accepts per-household capture uploads (streaming libpcap
// bodies — decoded record by record via pcap.Reader, never buffered whole)
// and batch uploads in the inspector wire format (JSON lines, decoded
// streamingly too). Every admitted upload runs on its own request goroutine;
// admission is a fixed number of slots, and when all are taken the server
// sheds load with 429 + Retry-After before reading a byte of the body. A
// capture upload is stateless: its report is a function of the household ID
// and the body alone, memoized by content hash.
//
// Each fleet artifact has one write path and one read path. Every inspector
// record enters fleet state through the fold (fold.go), which keeps live
// partial aggregates per shard; every served artifact (Table 2 and the §7
// mitigation sweep) folds those aggregates into one partial (shard.go) and
// is byte-identical to the offline Study pipeline for the same household
// set — concurrency never changes output bytes. Fleet state is sharded by
// household-ID hash: each shard locks independently, so an upload locks one
// shard and a read locks one shard at a time, for one Add. With
// Config.DataDir set the service is durable (durable.go): ingests are
// written ahead to a checksummed log before acknowledgement, shards are
// checkpointed periodically, and Open replays checkpoint + WAL on boot.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/serve/store"
)

// Config sizes the service. The zero value is usable: withDefaults fills
// every field.
type Config struct {
	// Workers is how many records the fold (fold.go) prepares at once
	// during recovery and batch uploads (< 1 = one per CPU, via the engine's
	// convention). Worker count never changes output bytes.
	Workers int
	// QueueCapacity is how many uploads are admitted beyond Workers. At
	// most Workers+QueueCapacity uploads run at once, each on its request's
	// own goroutine; the next one answers 429. That bound also bounds decode
	// memory: (Workers+QueueCapacity) × MaxUploadBytes.
	QueueCapacity int
	// MaxUploadBytes bounds one upload body (413 beyond it). One pcap
	// record is bounded by pcap.DefaultMaxRecordBytes (400 beyond it).
	MaxUploadBytes int64
	// RequestTimeout bounds body streaming for one upload. On expiry the
	// upload is abandoned with 503; analysis of a fully-streamed body is
	// never interrupted mid-flight.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses.
	RetryAfter time.Duration
	// CacheEntries bounds the content-hash memo of capture reports; at
	// capacity new reports are served but not retained. A capture's answer
	// is the same bytes either way.
	CacheEntries int
	// Logger, when set, gets one structured line per upload, read off its
	// trace: household, route, bytes, stage timings, status, cache verdict,
	// uploads already admitted when it arrived. Nil means no request
	// logging.
	Logger *slog.Logger
	// Shards splits fleet state by household-ID hash into independently
	// locked shards, each keeping live partial aggregates (< 1 = 1).
	// Artifact bytes are identical for any shard count.
	Shards int
	// DataDir, when set, makes inspector ingestion durable: a write-ahead
	// log plus periodic checkpoints live there, replayed on boot. Build
	// durable servers with Open (New panics on a recovery error).
	DataDir string
	// CheckpointEvery checkpoints after that many WAL records; 0 means only
	// the final checkpoint on Close. Ignored without DataDir.
	CheckpointEvery int
	// WALSync selects WAL durability (default store.SyncGroup: fsync before
	// acknowledging, coalescing concurrent uploads into one fsync).
	WALSync store.SyncMode
	// SelfCheckEvery, when > 0, shadow-recomputes every shard's batch
	// partials after that many folded households and byte-compares the
	// rendering against the live incremental aggregates, counting under
	// serve_selfcheck{result=ok|mismatch}; durable boots also run one check
	// right after recovery. 0 disables the periodic check (tests and the
	// property suite call SelfCheck directly).
	SelfCheckEvery int

	// retainWAL keeps pre-checkpoint WAL segments instead of compacting
	// them — the recovery tests compare boot-from-checkpoint against
	// boot-from-full-WAL with it.
	retainWAL bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 0 // engine convention: resolved per call
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	return c
}

// householdState is one household's ingested data: its crowdsourced
// inspector record. It exists only once a record is installed, and an
// upload that changes the record replaces it whole rather than mutating
// it, so a reader may keep it past the shard lock. Captures leave no
// state.
type householdState struct {
	inspector *inspector.Household
	// contribHash is the wire content hash of the installed inspector
	// record — the idempotence key for refolds (fold.go apply).
	contribHash [sha256.Size]byte
}

// job is one admitted upload, processed on its request's goroutine. The
// body is the still-unread request stream: admission applies before a byte
// of the upload is consumed.
type job struct {
	kind      string // "capture" | "inspector"
	household string
	body      io.Reader
	ctx       context.Context // request ctx, carrying the upload root span
}

// jobResult is what the handler writes back to the client. cache is the
// result-cache verdict ("hit" or "miss") of an analyzed capture, and empty
// for every other result.
type jobResult struct {
	status int
	body   []byte
	cache  string
}

// ctxReader aborts a body stream once the request context is cancelled, so
// an upload whose deadline has passed is never read further — the read
// fails fast with the context error and the handler answers 503.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// meterReader accounts a body stream as process consumes it: bytes and
// time spent blocked in Read (the body.read stage — reads interleave with
// record decoding, so the cost accumulates rather than brackets), plus a
// live in-flight-bytes gauge. The caller releases the gauge when done.
// start marks the start of the read+decode loop on the span clock.
type meterReader struct {
	r        io.Reader
	inflight *obs.Gauge
	n        int64
	dur      time.Duration
	start    int64
}

// meter wraps j's body in a meterReader and starts its read+decode loop.
func (s *Server) meter(j *job) *meterReader {
	return &meterReader{r: j.body, inflight: s.mInflight, start: s.spans.Now()}
}

// endDecode closes the read+decode loop metered by mr, whose decoder
// produced n units (records or households), as two spans that tile the
// loop: body.read, the time blocked in Read, from the loop's start, then
// the decode stage, the rest of the loop, from where body.read ends.
func (s *Server) endDecode(j *job, mr *meterReader, stage, unit string, n int) {
	read := mr.dur.Microseconds()
	s.spans.RecordSpan(j.ctx, "serve", "body.read", mr.start, read,
		"bytes", strconv.FormatInt(mr.n, 10))
	s.spans.RecordSpan(j.ctx, "serve", stage, mr.start+read, s.spans.Now()-mr.start-read,
		unit, strconv.Itoa(n))
}

func (m *meterReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := m.r.Read(p)
	m.dur += time.Since(t0)
	m.n += int64(n)
	if n > 0 {
		m.inflight.Add(int64(n))
	}
	return n, err
}

// Server is the ingestion service. Create with New, attach Mux to an HTTP
// server, and stop with Drain + Close.
type Server struct {
	cfg Config
	reg *obs.Registry
	// slots admits uploads, one token per upload in flight; its capacity,
	// Workers+QueueCapacity, is the only admission bound. wg counts the
	// admitted uploads for Close.
	slots    chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	// drainMu orders admit against Close: admit holds the read lock across
	// its draining check and wait-group add, and Close sets the drain flag
	// under the write lock before waiting — an admitted upload is always
	// processed before Close returns.
	drainMu sync.RWMutex

	// shards hold the fleet state (shard.go); fleetVersion counts the
	// ingests that changed it, reported by /v1/fleet.
	shards       []*fleetShard
	fleetVersion atomic.Uint64

	// mu guards the capture result cache.
	mu    sync.Mutex
	cache map[[sha256.Size]byte][]byte

	// Durability (durable.go). wal is nil without Config.DataDir. ckptGate
	// orders ingest (read lock across WAL append + state apply) against
	// checkpointing (write lock across rotate + snapshot capture) so a
	// compacted segment's records are always inside the checkpoint. ckptMu
	// serializes checkpoint runs; walSince counts records since the last.
	wal       *store.Log
	ckptGate  sync.RWMutex
	ckptMu    sync.Mutex
	walSince  atomic.Int64
	closeOnce sync.Once

	// Self-check (selfcheck.go). selfMu serializes shadow-batch runs;
	// foldsSince counts folded households since the last one.
	selfMu     sync.Mutex
	foldsSince atomic.Int64

	// spans times every request, once, as a trace of spans; its sink
	// (trace.go) derives the stage histograms, mLatency, the request log
	// and flight's copy from each finished trace.
	spans  *obs.SpanTracer
	flight *obs.FlightRecorder
	logger *slog.Logger

	// mQueueDepth is serve_queue_depth: the uploads admitted right now.
	mQueueDepth *obs.Gauge
	mInflight   *obs.Gauge
	mLatency    *obs.Histogram
	stageHist   map[string]*obs.Histogram

	// processHook, when set (tests only), runs before each admitted upload
	// is processed — a gate for deterministic admission and drain
	// scenarios.
	processHook func(*job)
}

// New builds an in-memory server. For durable configurations (DataDir set)
// prefer Open, which surfaces recovery errors; New panics on them.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// newServer builds the server. Open recovers durable state before handing
// it out, so no upload races the replay.
func newServer(cfg Config) *Server {
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.NumCPU() // the engine's convention for unset
	}
	s := &Server{
		cfg:    cfg,
		reg:    obs.NewRegistry(),
		slots:  make(chan struct{}, workers+cfg.QueueCapacity),
		shards: newShards(cfg.Shards),
		cache:  make(map[[sha256.Size]byte][]byte),
	}
	s.reg.Gauge("serve_shards").Set(int64(cfg.Shards))
	s.mQueueDepth = s.reg.Gauge("serve_queue_depth")
	s.mInflight = s.reg.Gauge("serve_inflight_bytes")
	s.mLatency = s.reg.Histogram("serve_latency_ms", msBounds)
	s.stageHist = make(map[string]*obs.Histogram, len(uploadStages))
	for _, stage := range uploadStages {
		s.stageHist[stage] = s.reg.Histogram("serve_stage_ms", msBounds, "stage", stage)
	}
	s.spans = obs.NewSpanTracer(obs.WallClock)
	s.flight = obs.NewFlightRecorder(0, 0)
	s.spans.SetSink(traceSink{s})
	s.logger = cfg.Logger
	return s
}

// Registry exposes the service's operational metrics (served at /metrics).
// Unlike the simulator registries, these values are wall-clock operational
// data — latency histograms, admitted uploads — and are not expected to be
// deterministic across runs.
func (s *Server) Registry() *obs.Registry { return s.reg }

// FlightRecorder exposes the retained request traces — served at
// /debug/flightrecorder and dumped on SIGQUIT by cmd/iotserve.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// Drain marks the server as draining: new uploads are refused with 503
// while admitted ones run to completion. Safe to call more than once.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains (if not already draining) and waits for every admitted
// upload to finish. After Close no upload is admitted. With durability on,
// the flush happens after the last upload finishes: a final checkpoint is
// written and the WAL is synced shut, so every acknowledged upload is on
// disk before Close returns — the graceful-drain contract cmd/iotserve
// relies on for SIGTERM.
func (s *Server) Close() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.wg.Wait()
	s.closeOnce.Do(s.closeDurable)
}

// admit takes an admission slot without blocking. False means every slot is
// taken (the caller sheds the upload with 429) or the server is draining.
// The read lock spans the draining check and the wait-group add, so Close
// never misses an admitted upload.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	select {
	case s.slots <- struct{}{}:
		s.wg.Add(1)
		s.mQueueDepth.Add(1)
		return true
	default:
		return false
	}
}

// release returns an admitted upload's slot.
func (s *Server) release() {
	s.mQueueDepth.Add(-1)
	<-s.slots
	s.wg.Done()
}

// process runs one admitted upload end to end on the caller's goroutine:
// stream-decode, hash, cache lookup, analyze, publish.
func (s *Server) process(j *job) jobResult {
	if s.processHook != nil {
		s.processHook(j)
	}
	if j.ctx.Err() != nil {
		// The upload's deadline passed (or the client disconnected) before
		// processing began; skip the work entirely.
		s.reg.Counter("serve_jobs_cancelled", "kind", j.kind).Inc()
		s.reg.Counter("serve_upload_rejected", "reason", "timeout").Inc()
		return jobResult{status: http.StatusServiceUnavailable, body: s.errEnvelope("upload cancelled", s.cfg.RetryAfter)}
	}
	var res jobResult
	switch j.kind {
	case "capture":
		res = s.processCapture(j)
	case "inspector":
		res = s.processInspector(j)
	}
	s.reg.Counter("serve_jobs_done", "kind", j.kind).Inc()
	return res
}

// processCapture streams a libpcap body: records decode one at a time with
// bounded per-record allocation while the raw bytes feed the content hash.
// A malformed or truncated body is a 400; a body over MaxUploadBytes is a
// 413 (the handler wrapped it in http.MaxBytesReader). The report is a pure
// function of the household ID and the body, so the result cache is only a
// memo: on a hit the analysis stage is skipped and the same bytes served.
// The cache key mixes the household ID into the content hash because the
// report embeds the ID: byte-identical captures from two households must be
// distinct entries.
func (s *Server) processCapture(j *job) jobResult {
	h := sha256.New()
	h.Write([]byte(j.household))
	h.Write([]byte{0}) // separator: the ID can never bleed into body bytes
	mr := s.meter(j)
	defer func() { s.mInflight.Add(-mr.n) }()
	rd, err := pcap.NewReader(io.TeeReader(mr, h))
	if err != nil {
		s.endDecode(j, mr, "pcap.decode", "records", 0)
		return s.uploadError(err, "capture")
	}
	var records []pcap.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.endDecode(j, mr, "pcap.decode", "records", len(records))
			return s.uploadError(err, "capture")
		}
		records = append(records, rec)
	}
	s.endDecode(j, mr, "pcap.decode", "records", len(records))
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	_, lookup := s.spans.StartSpan(j.ctx, "serve", "cache.lookup")
	body, verdict := s.cacheGet(digest)
	lookup.SetAttr("result", verdict)
	lookup.End()
	if verdict == "hit" {
		return jobResult{status: http.StatusOK, body: body, cache: verdict}
	}
	_, aspan := s.spans.StartSpan(j.ctx, "serve", "analysis")
	body = analyzeCapture(j.household, records)
	aspan.End()
	s.cachePut(digest, body)
	s.reg.Counter("serve_uploads", "kind", "capture").Inc()
	s.reg.Counter("serve_upload_frames").Add(uint64(len(records)))
	return jobResult{status: http.StatusOK, body: body, cache: verdict}
}

// processInspector streams a JSONL wire-format body, replacing each
// household's crowdsourced record. It never consults the result cache: the
// fold skips a record whose content hash is already installed, so a
// re-posted batch is applied idempotently — including over a newer upload
// of the same household, which an answer from the cache would have kept.
func (s *Server) processInspector(j *job) jobResult {
	mr := s.meter(j)
	defer func() { s.mInflight.Add(-mr.n) }()
	dec := inspector.NewWireDecoder(mr)
	var hhs []*inspector.Household
	for {
		hh, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.endDecode(j, mr, "inspector.decode", "households", len(hhs))
			return s.uploadError(err, "inspector")
		}
		hhs = append(hhs, hh)
	}
	s.endDecode(j, mr, "inspector.decode", "households", len(hhs))
	actx, aspan := s.spans.StartSpan(j.ctx, "serve", "analysis")
	if err := s.ingest(actx, hhs); err != nil {
		aspan.Fail()
		aspan.End()
		s.reg.Counter("serve_upload_rejected", "reason", "wal").Inc()
		return jobResult{status: http.StatusInternalServerError,
			body: s.errEnvelope(fmt.Sprintf("durable ingest failed: %v", err), s.cfg.RetryAfter)}
	}
	s.maybeCheckpoint()
	s.maybeSelfCheck()
	aspan.End()
	s.reg.Counter("serve_uploads", "kind", "inspector").Inc()
	return jobResult{status: http.StatusOK, body: ingestReply(hhs)}
}

// uploadError classifies a streaming-decode failure: a cancelled request
// context (deadline mid-stream, client gone) is a 503, body-limit hits are
// 413, everything else (bad magic, truncation, implausible lengths, bad
// JSON) is a 400.
func (s *Server) uploadError(err error, kind string) jobResult {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.reg.Counter("serve_jobs_cancelled", "kind", kind).Inc()
		s.reg.Counter("serve_upload_rejected", "reason", "timeout").Inc()
		return jobResult{status: http.StatusServiceUnavailable, body: s.errEnvelope("upload cancelled mid-stream", s.cfg.RetryAfter)}
	}
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) {
		s.reg.Counter("serve_upload_rejected", "reason", "oversized").Inc()
		return jobResult{status: http.StatusRequestEntityTooLarge,
			body: s.errEnvelope(fmt.Sprintf("upload exceeds %d bytes", maxBytes.Limit), 0)}
	}
	s.reg.Counter("serve_upload_rejected", "reason", "malformed").Inc()
	return jobResult{status: http.StatusBadRequest, body: s.errEnvelope(fmt.Sprintf("malformed %s upload: %v", kind, err), 0)}
}

// captureReport is the JSON answer to a capture upload.
type captureReport struct {
	Household   string         `json:"household"`
	Frames      int            `json:"frames"`
	LocalFrames int            `json:"local_frames"`
	Protocols   map[string]int `json:"protocols"`
	Sources     int            `json:"sources"`
	ExposedAt   int            `json:"exposed_cells"`
}

// analyzeCapture counts protocols, sources and local frames in one pass,
// decoding each record into one reused packet as the offline readers do,
// then builds the exposure matrix and renders the upload report. It touches
// no server state: a capture's answer depends on nothing but its own
// upload.
func analyzeCapture(household string, records []pcap.Record) []byte {
	protocols := make(map[string]int, 4)
	sources := make(map[netx.MAC]bool)
	local := 0
	var p layers.Packet
	for _, rec := range records {
		p.DecodeInto(rec.Data)
		protocols[p.L3Name()]++
		if p.HasEth {
			sources[p.Eth.Src] = true
		}
		if p.IsLocal() {
			local++
		}
	}
	exposure := analysis.BuildExposure(records)
	exposed := 0
	for _, proto := range analysis.ExposureRows {
		for _, f := range analysis.ExposureFields {
			if exposure.Exposed(proto, f) {
				exposed++
			}
		}
	}
	return mustJSON(captureReport{
		Household:   household,
		Frames:      len(records),
		LocalFrames: local,
		Protocols:   protocols,
		Sources:     len(sources),
		ExposedAt:   exposed,
	})
}

// ingest folds an uploaded batch into the fleet (fold.go), foldChunk
// households at a time. Each chunk is prepared outside ckptGate; with
// durability on it is then written ahead — the prepared record bytes — and
// applied in upload order under the gate's read lock, which keeps every
// append+apply pair atomic with respect to checkpoint compaction (see
// checkpoint). The ack is backed by the log. A WAL error stops the batch:
// earlier chunks stay logged and applied, the client gets a 500, and its
// retry re-applies idempotently. The fleet version moves only if something
// actually changed. Each chunk's append+apply is a wal.append span under
// ctx's, the upload's analysis span.
func (s *Server) ingest(ctx context.Context, hhs []*inspector.Household) error {
	folded := 0
	var err error
	for lo := 0; lo < len(hhs) && err == nil; lo += foldChunk {
		// A one-household upload is prepared inline on the caller.
		chunk := hhs[lo:min(lo+foldChunk, len(hhs))]
		ps := engine.Map(s.cfg.Workers, len(chunk), func(i int) prepared { return s.prepareUpload(chunk[i]) })
		if s.wal == nil {
			folded += s.applyUploads(ps)
			continue
		}
		// The span includes the apply; fsync dominates it.
		_, wspan := s.spans.StartSpan(ctx, "serve", "wal.append", "households", strconv.Itoa(len(ps)))
		s.ckptGate.RLock()
		if err = s.walAppend(ps); err == nil {
			folded += s.applyUploads(ps)
		}
		s.ckptGate.RUnlock()
		wspan.End()
	}
	if folded > 0 {
		s.fleetVersion.Add(1)
		s.foldsSince.Add(int64(folded))
	}
	return err
}

// applyUploads applies a prepared chunk in upload order, counting refolds
// under serve_refold{result=folded|skipped}, and returns how many changed
// the fleet.
func (s *Server) applyUploads(ps []prepared) int {
	folded := 0
	for i := range ps {
		if !s.apply(&ps[i]) {
			s.reg.Counter("serve_refold", "result", "skipped").Inc()
			continue
		}
		folded++
		s.reg.Counter("serve_refold", "result", "folded").Inc()
	}
	return folded
}

// ingestReply is the JSON answer to an inspector upload: the batch's
// household IDs, sorted, and its device count.
func ingestReply(hhs []*inspector.Household) []byte {
	devices := 0
	ids := make([]string, len(hhs))
	for i, hh := range hhs {
		devices += len(hh.Devices)
		ids[i] = hh.ID
	}
	sort.Strings(ids)
	return mustJSON(struct {
		Households []string `json:"households"`
		Devices    int      `json:"devices"`
	}{ids, devices})
}

// cacheGet looks a digest up in the bounded result cache and returns the
// verdict, "hit" or "miss", counted under serve_cache{result}.
func (s *Server) cacheGet(digest [sha256.Size]byte) ([]byte, string) {
	s.mu.Lock()
	body, ok := s.cache[digest]
	s.mu.Unlock()
	verdict := "miss"
	if ok {
		verdict = "hit"
	}
	s.reg.Counter("serve_cache", "result", verdict).Inc()
	return body, verdict
}

// cachePut stores a result unless the cache is at capacity (new results are
// still served, just not retained — the bound keeps a hostile uploader from
// growing the cache without limit).
func (s *Server) cachePut(digest [sha256.Size]byte, body []byte) {
	s.mu.Lock()
	if len(s.cache) < s.cfg.CacheEntries {
		s.cache[digest] = body
	} else {
		s.reg.Counter("serve_cache_full").Inc()
	}
	s.mu.Unlock()
}

// artifactReport is the JSON rendering of one registry artifact computed
// over the ingested fleet.
type artifactReport struct {
	Name       string             `json:"name"`
	PaperRef   string             `json:"paper_ref"`
	Kind       string             `json:"kind"`
	Households int                `json:"households"`
	ID         string             `json:"id"`
	Rendered   string             `json:"rendered"`
	Metrics    map[string]float64 `json:"metrics"`
}

// RunFleetArtifact serves a registry artifact over every ingested household
// by folding the shards' live partial aggregates into one partial and
// rendering it (shard.go). Only the artifacts computed from uploads run;
// every other one — the lab's pipelines, and the static device inventory of
// table3 — returns ErrOfflineArtifact. Nothing is memoized: every read
// folds the fleet's current state. For a fixed household set the bytes
// equal the offline Study pipeline's regardless of upload concurrency,
// shard count or worker count. ctx carries the request's span for tracing
// (use context.Background() outside a request).
func (s *Server) RunFleetArtifact(ctx context.Context, name string) ([]byte, error) {
	a, ok := iotlan.ArtifactByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown artifact %q", name)
	}
	fa, ok := fleetArtifacts[a.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrOfflineArtifact, a.Name)
	}
	_, bspan := s.spans.StartSpan(ctx, "serve", "artifact.build", "artifact", a.Name)
	res, households := fa.build(s)
	bspan.End()
	return mustJSON(artifactReport{
		Name:       a.Name,
		PaperRef:   a.PaperRef,
		Kind:       a.Kind,
		Households: households,
		ID:         res.ID,
		Rendered:   res.Rendered,
		Metrics:    res.Metrics,
	}), nil
}

// ErrOfflineArtifact marks registry artifacts the service does not compute
// from crowdsourced uploads: those needing the offline lab pipelines
// (passive capture, scans, vuln audit, app runs) and the lab's static
// device inventory.
var ErrOfflineArtifact = errors.New("artifact not computed from uploads")

// householdReport is the JSON answer to GET /v1/households/{id}/report: a
// summary of the household's installed inspector record.
type householdReport struct {
	Household string            `json:"household"`
	Inspector *inspectorSummary `json:"inspector"`
}

type inspectorSummary struct {
	Devices     int            `json:"devices"`
	Identifiers map[string]int `json:"identifiers"`
	Identified  int            `json:"identified_vendors"`
}

// report renders a household's installed inspector record, or ok=false if
// the household has none.
func (s *Server) report(id string) ([]byte, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	st, ok := sh.households[id]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	hh := st.inspector

	ds := &inspector.Dataset{Households: []*inspector.Household{hh}}
	ids := analysis.ExtractIdentifiers(ds, 1)
	sum := &inspectorSummary{Devices: len(hh.Devices), Identifiers: map[string]int{}}
	for _, d := range hh.Devices {
		for typ, vals := range ids.Of(d) {
			sum.Identifiers[typ.String()] += len(vals)
		}
		if inspector.Identify(d).Vendor != "unknown" {
			sum.Identified++
		}
	}
	return mustJSON(householdReport{Household: id, Inspector: sum}), true
}

// fleetSummary is the JSON answer to GET /v1/fleet.
type fleetSummary struct {
	Households int    `json:"households"`
	Devices    int    `json:"devices"`
	Version    uint64 `json:"version"`
}

// fleet summarizes the households with an installed inspector record.
func (s *Server) fleet() []byte {
	sum := fleetSummary{Version: s.fleetVersion.Load()}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sum.Households += len(sh.households)
		for _, st := range sh.households {
			sum.Devices += len(st.inspector.Devices)
		}
		sh.mu.Unlock()
	}
	return mustJSON(sum)
}

func mustJSON(v interface{}) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil { // unreachable: report types always marshal
		return []byte("{}")
	}
	return append(b, '\n')
}

// errEnvelope renders the one error payload shape every 4xx/5xx on the v1
// surface carries: the message, a machine-usable retry hint (0 = retrying
// cannot help: client bugs, unknown names, oversized bodies), and the
// admission pressure at response time — uploads admitted and the admission
// bound — so client logs always carry it without per-status parsing.
func (s *Server) errEnvelope(msg string, retryAfter time.Duration) []byte {
	return mustJSON(struct {
		Error         string `json:"error"`
		RetryAfterMS  int64  `json:"retry_after_ms"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
	}{msg, retryAfter.Milliseconds(), len(s.slots), cap(s.slots)})
}
