// Package serve is the crowdsourced ingestion-and-analysis service behind
// cmd/iotserve: the production shape the paper's §6.3 pipeline implies (IoT
// Inspector collected 13,487 devices across 3,860 households from continuous
// real-user uploads) built on this repo's analysis engine.
//
// The service accepts per-household capture uploads (streaming libpcap
// bodies — decoded record by record via pcap.Reader, never buffered whole)
// and batch uploads in the inspector wire format (JSON lines, decoded
// streamingly too). Every upload flows through a bounded worker pool fed by
// a fixed-capacity queue: when the queue is full the server sheds load with
// 429 + Retry-After instead of buffering unboundedly. Capture reports are
// cached by content hash, so a re-uploaded capture is served without
// recompute.
//
// Each fleet artifact has one write path and one read path. Every inspector
// record enters fleet state through the fold (fold.go), which keeps live
// partial aggregates per shard; every served artifact (Table 2 and the §7
// mitigation sweep) merges those aggregates (shard.go) and is
// byte-identical to the offline Study pipeline for the same household set —
// concurrency never changes output bytes. Fleet state is sharded by
// household-ID hash: each shard locks independently, so an upload touches
// one shard's aggregates and leaves the others' read clones warm. With
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
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/serve/store"
)

// Config sizes the service. The zero value is usable: withDefaults fills
// every field.
type Config struct {
	// Workers is the analysis worker pool size (< 1 = one per CPU, via the
	// engine's convention), and how many records the fold (fold.go)
	// prepares at once during recovery and batch uploads. Worker count
	// never changes output bytes.
	Workers int
	// QueueCapacity bounds the ingestion queue; a full queue answers 429.
	QueueCapacity int
	// Inline runs each admitted upload on its request's own goroutine
	// instead of handing it to the worker pool. Admission keeps its size —
	// at most Workers+QueueCapacity uploads in flight, the rest shed with
	// 429 — but no upload ever waits for a worker. In-sim serving over vnet
	// sets it: the pool's channel hop is invisible to the simulation's clock
	// gate, so a handler waiting on a worker would hold the virtual clock
	// while the worker ran ungranted (see internal/vnet).
	Inline bool
	// MaxUploadBytes bounds one upload body (413 beyond it).
	MaxUploadBytes int64
	// MaxRecordBytes bounds one pcap record's captured length (400 beyond).
	MaxRecordBytes uint32
	// RequestTimeout bounds queue wait + body streaming for one upload.
	// On expiry the worker abandons the upload and answers 503; analysis of
	// a fully-streamed body is never interrupted mid-flight.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses.
	RetryAfter time.Duration
	// CacheEntries bounds the content-hash cache of capture reports; at
	// capacity new reports are served but not retained.
	CacheEntries int
	// DisableTracing turns off per-request spans and the flight recorder.
	// Tracing is observational only — artifact bytes are identical either
	// way (TestTracingDoesNotChangeArtifacts) — so the default is on.
	DisableTracing bool
	// FlightRecorderSize bounds the ring of recent request traces kept for
	// postmortems (0 = obs.DefaultFlightRecent). Ignored when tracing is
	// disabled.
	FlightRecorderSize int
	// Logger, when set, gets one structured line per upload: household,
	// route, bytes, stage timings, status, cache verdict, queue depth at
	// admit. Nil means no request logging.
	Logger *slog.Logger
	// Shards splits fleet state by household-ID hash into independently
	// locked shards with independently cached partial aggregates (< 1 = 1).
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
	// RetainWAL keeps pre-checkpoint WAL segments instead of compacting
	// them — the recovery tests compare boot-from-checkpoint against
	// boot-from-full-WAL with it.
	RetainWAL bool
	// SelfCheckEvery, when > 0, shadow-recomputes every shard's batch
	// partials after that many folded households and byte-compares the
	// rendering against the live incremental aggregates, counting under
	// serve_selfcheck{result=ok|mismatch}; durable boots also run one check
	// right after recovery. 0 disables the periodic check (tests and the
	// property suite call SelfCheck directly).
	SelfCheckEvery int
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
	if c.MaxRecordBytes == 0 {
		c.MaxRecordBytes = pcap.DefaultMaxRecordBytes
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

// householdState accumulates one household's ingested data. Capture counters
// only ever add, so any arrival order of the same upload set produces the
// same totals; the inspector record is replaced whole per upload.
type householdState struct {
	captures    int
	frames      int
	localFrames int
	protocols   map[string]int
	sources     map[string]bool
	exposed     int // exposure cells filled across all captures (latest union)
	inspector   *inspector.Household
	// contribHash is the wire content hash of the installed inspector
	// record — the idempotence key for refolds (fold.go apply). Zero when
	// no record is installed.
	contribHash [sha256.Size]byte
}

// job is one queued upload. The body is the still-unread request stream:
// backpressure applies before a byte of the upload is consumed, and the
// worker is the only reader.
type job struct {
	kind      string // "capture" | "inspector"
	household string
	body      io.Reader
	ctx       context.Context // request ctx, carrying the upload root span
	done      chan jobResult
	// enqueuedAt and qspan bracket queue wait: stamped by the handler just
	// before the queue send, closed out by the worker at pop. The handler
	// never touches them after a successful enqueue.
	enqueuedAt time.Time
	qspan      *obs.Span
	// stats is written by the worker and read by the handler after done —
	// the handler always waits for the worker's verdict, so no race.
	stats uploadStats
}

// uploadStats is the per-stage accounting one upload leaves behind for the
// structured request log.
type uploadStats struct {
	Bytes       int64
	QueueWait   time.Duration
	BodyRead    time.Duration
	Decode      time.Duration
	Analysis    time.Duration
	CacheLookup time.Duration
	WALAppend   time.Duration
}

// jobResult is what the waiting handler writes back to the client. cache
// is the result-cache verdict ("hit" or "miss") of an analyzed capture, and
// empty for every other result.
type jobResult struct {
	status int
	body   []byte
	cache  string
}

// ctxReader aborts a body stream once the request context is cancelled, so
// a worker never keeps reading an upload whose deadline has passed — it
// fails fast with the context error and the handler (which always waits for
// the worker's verdict) relays the 503.
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

// meterReader accounts a body stream as the worker consumes it: bytes and
// time spent blocked in Read (the body.read stage — reads interleave with
// record decoding, so the cost accumulates rather than brackets), plus a
// live in-flight-bytes gauge. The caller releases the gauge when done.
type meterReader struct {
	r        io.Reader
	inflight *obs.Gauge
	n        int64
	dur      time.Duration
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
	cfg      Config
	reg      *obs.Registry
	queue    chan *job
	quit     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	// drainMu orders enqueue against Close: enqueue holds the read lock
	// across its draining check + queue send, and Close sets the drain flag
	// under the write lock before closing quit. Any job accepted before the
	// flag flips is therefore already in the queue when the workers start
	// their final drain sweep — an accepted upload is always processed.
	drainMu sync.RWMutex
	// slots admits Inline uploads, one token per upload in flight (nil
	// with the worker pool).
	slots chan struct{}

	// shards hold the fleet state (shard.go); fleetVersion counts the
	// ingests that changed it, reported by /v1/fleet.
	shards       []*fleetShard
	fleetVersion atomic.Uint64

	// mu guards the capture result cache and the merged-artifact memo.
	mu        sync.Mutex
	cache     map[[sha256.Size]byte][]byte
	fleetMemo map[string]fleetEntry

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

	// spans/flight are the request-tracing surface; both nil when
	// Config.DisableTracing is set (every call through them no-ops).
	spans  *obs.SpanTracer
	flight *obs.FlightRecorder
	logger *slog.Logger

	mQueueDepth  *obs.Gauge
	mWorkersBusy *obs.Gauge
	mInflight    *obs.Gauge
	mLatency     *obs.Histogram
	stageHist    map[string]*obs.Histogram

	// processHook, when set (tests only), runs in the worker before each
	// job — a gate for deterministic queue-full and drain scenarios.
	processHook func(*job)
}

// uploadStages are the per-upload pipeline stages, each with its own
// serve_stage_ms{stage=...} histogram — the direct answer to "where did
// the p99 go".
var uploadStages = []string{
	"queue.wait", "body.read", "pcap.decode", "inspector.decode",
	"analysis", "cache.lookup", "artifact.build", "wal.append",
}

// stageBounds are millisecond bucket bounds for the stage histograms; the
// sub-millisecond buckets matter because cache lookups and queue waits are
// usually far under 1ms.
var stageBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// fleetEntry is one memoized merged-artifact body, labeled with the
// per-shard version vector the building sweep observed.
type fleetEntry struct {
	shardVers []uint64
	body      []byte
}

// New builds an in-memory server and starts its worker pool. For durable
// configurations (DataDir set) prefer Open, which surfaces recovery errors;
// New panics on them.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// newServer builds the server without starting workers — Open recovers
// durable state in between, so no upload races the replay.
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		reg:       obs.NewRegistry(),
		queue:     make(chan *job, cfg.QueueCapacity),
		quit:      make(chan struct{}),
		shards:    newShards(cfg.Shards),
		cache:     make(map[[sha256.Size]byte][]byte),
		fleetMemo: make(map[string]fleetEntry),
	}
	s.reg.Gauge("serve_shards").Set(int64(cfg.Shards))
	s.mQueueDepth = s.reg.Gauge("serve_queue_depth")
	s.mWorkersBusy = s.reg.Gauge("serve_workers_busy")
	s.mInflight = s.reg.Gauge("serve_inflight_bytes")
	s.mLatency = s.reg.Histogram("serve_latency_ms",
		[]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000})
	s.stageHist = make(map[string]*obs.Histogram, len(uploadStages))
	for _, stage := range uploadStages {
		s.stageHist[stage] = s.reg.Histogram("serve_stage_ms", stageBounds, "stage", stage)
	}
	if !cfg.DisableTracing {
		s.spans = obs.NewSpanTracer(obs.WallClock)
		s.flight = obs.NewFlightRecorder(cfg.FlightRecorderSize, 0)
		s.spans.SetSink(s.flight)
	}
	s.logger = cfg.Logger
	return s
}

func (s *Server) startWorkers() {
	workers := s.cfg.Workers
	if workers < 1 {
		workers = defaultWorkers()
	}
	if s.cfg.Inline {
		s.slots = make(chan struct{}, workers+s.cfg.QueueCapacity)
		return
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Registry exposes the service's operational metrics (served at /metrics).
// Unlike the simulator registries, these values are wall-clock operational
// data — latency histograms, queue depths — and are not expected to be
// deterministic across runs.
func (s *Server) Registry() *obs.Registry { return s.reg }

// FlightRecorder exposes the retained request traces (nil when tracing is
// disabled) — served at /debug/flightrecorder and dumped on SIGQUIT by
// cmd/iotserve.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// stageObserve feeds one stage's latency histogram.
func (s *Server) stageObserve(stage string, d time.Duration) {
	s.stageHist[stage].Observe(float64(d) / float64(time.Millisecond))
}

// Drain marks the server as draining: new uploads are refused with 503
// while queued and in-flight analyses run to completion. Safe to call more
// than once.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains (if not already draining), lets the workers finish every
// queued job, and stops the pool. After Close no job is processed. With
// durability on, the flush happens after the last worker exits: a final
// checkpoint is written and the WAL is synced shut, so every acknowledged
// upload is on disk before Close returns — the graceful-drain contract
// cmd/iotserve relies on for SIGTERM.
func (s *Server) Close() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	s.wg.Wait()
	s.closeOnce.Do(s.closeDurable)
}

// worker pops jobs until quit, then finishes whatever is still queued — the
// graceful-drain contract: an accepted upload is always analyzed.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.process(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.process(j)
				default:
					return
				}
			}
		}
	}
}

// enqueue offers a job to the queue without blocking. False means the queue
// is full (the caller sheds the upload with 429) or the server is draining.
// The read lock spans the draining check and the send so a job can never
// slip into the queue after Close's final drain sweep has started. Inline
// servers take an admission slot instead and run the job right away, on the
// caller; Close waits for it like for a worker.
func (s *Server) enqueue(j *job) bool {
	if s.slots != nil {
		if !s.admit() {
			return false
		}
		defer func() {
			<-s.slots
			s.wg.Done()
		}()
		s.process(j)
		return true
	}
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	select {
	case s.queue <- j:
		s.mQueueDepth.Set(int64(len(s.queue)))
		return true
	default:
		return false
	}
}

// admit takes an Inline admission slot. The read lock spans the draining
// check and the wait-group add, so Close never misses an admitted upload.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	select {
	case s.slots <- struct{}{}:
		s.wg.Add(1)
		return true
	default:
		return false
	}
}

// process runs one upload end to end: stream-decode, hash, cache lookup,
// analyze, publish.
func (s *Server) process(j *job) {
	s.mQueueDepth.Set(int64(len(s.queue)))
	s.mWorkersBusy.Add(1)
	defer s.mWorkersBusy.Add(-1)
	if !j.enqueuedAt.IsZero() {
		j.stats.QueueWait = time.Since(j.enqueuedAt)
		s.stageObserve("queue.wait", j.stats.QueueWait)
	}
	j.qspan.End()
	if s.processHook != nil {
		s.processHook(j)
	}
	if j.ctx != nil && j.ctx.Err() != nil {
		// The upload's deadline passed while it sat in the queue (or the
		// client disconnected); skip the work entirely. The handler is
		// still waiting on done and relays the 503.
		s.reg.Counter("serve_jobs_cancelled", "kind", j.kind).Inc()
		s.reg.Counter("serve_upload_rejected", "reason", "timeout").Inc()
		j.done <- jobResult{status: http.StatusServiceUnavailable, body: s.errEnvelope("upload cancelled", s.cfg.RetryAfter)}
		return
	}
	var res jobResult
	switch j.kind {
	case "capture":
		res = s.processCapture(j)
	case "inspector":
		res = s.processInspector(j)
	}
	s.reg.Counter("serve_jobs_done", "kind", j.kind).Inc()
	j.done <- res
}

// processCapture streams a libpcap body: records decode one at a time with
// bounded per-record allocation while the raw bytes feed the content hash.
// A malformed or truncated body is a 400; a body over MaxUploadBytes is a
// 413 (the handler wrapped it in http.MaxBytesReader). On a cache hit the
// analysis stage is skipped and the cached report served. The cache key
// mixes the household ID into the content hash: the report embeds the ID
// and a hit skips state accumulation, so byte-identical captures from two
// households must be distinct entries.
func (s *Server) processCapture(j *job) jobResult {
	h := sha256.New()
	h.Write([]byte(j.household))
	h.Write([]byte{0}) // separator: the ID can never bleed into body bytes
	mr := &meterReader{r: j.body, inflight: s.mInflight}
	defer func() { s.mInflight.Add(-mr.n) }()
	decodeStart, spanStart := time.Now(), s.spans.Now()
	endDecode := func(records int) {
		loop := time.Since(decodeStart)
		j.stats.Bytes, j.stats.BodyRead = mr.n, mr.dur
		j.stats.Decode = loop - mr.dur
		s.stageObserve("body.read", j.stats.BodyRead)
		s.stageObserve("pcap.decode", j.stats.Decode)
		s.spans.RecordSpan(j.ctx, "serve", "body.read", spanStart, mr.dur.Microseconds(),
			"bytes", strconv.FormatInt(mr.n, 10))
		s.spans.RecordSpan(j.ctx, "serve", "pcap.decode", spanStart, loop.Microseconds(),
			"records", strconv.Itoa(records))
	}
	rd, err := pcap.NewReader(io.TeeReader(mr, h))
	if err != nil {
		endDecode(0)
		return s.uploadError(err, "capture")
	}
	rd.SetMaxRecordBytes(s.cfg.MaxRecordBytes)
	var records []pcap.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			endDecode(len(records))
			return s.uploadError(err, "capture")
		}
		records = append(records, rec)
	}
	endDecode(len(records))
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	body, hit := s.timedCacheGet(j, digest)
	if hit {
		return jobResult{status: http.StatusOK, body: body, cache: "hit"}
	}
	aStart := time.Now()
	_, aspan := s.spans.StartSpan(j.ctx, "serve", "analysis")
	body = s.analyzeCapture(j.household, records)
	aspan.End()
	j.stats.Analysis = time.Since(aStart)
	s.stageObserve("analysis", j.stats.Analysis)
	s.cachePut(digest, body)
	s.reg.Counter("serve_uploads", "kind", "capture").Inc()
	s.reg.Counter("serve_upload_frames").Add(uint64(len(records)))
	return jobResult{status: http.StatusOK, body: body, cache: "miss"}
}

// timedCacheGet is cacheGet with the cache.lookup stage accounted.
func (s *Server) timedCacheGet(j *job, digest [sha256.Size]byte) ([]byte, bool) {
	cStart, cSpan := time.Now(), s.spans.Now()
	body, ok := s.cacheGet(digest)
	j.stats.CacheLookup = time.Since(cStart)
	s.stageObserve("cache.lookup", j.stats.CacheLookup)
	verdict := "miss"
	if ok {
		verdict = "hit"
	}
	s.spans.RecordSpan(j.ctx, "serve", "cache.lookup", cSpan, j.stats.CacheLookup.Microseconds(),
		"result", verdict)
	return body, ok
}

// processInspector streams a JSONL wire-format body, replacing each
// household's crowdsourced record. It never consults the result cache: the
// fold skips a record whose content hash is already installed, so a
// re-posted batch is applied idempotently — including over a newer upload
// of the same household, which an answer from the cache would have kept.
func (s *Server) processInspector(j *job) jobResult {
	mr := &meterReader{r: j.body, inflight: s.mInflight}
	defer func() { s.mInflight.Add(-mr.n) }()
	decodeStart, spanStart := time.Now(), s.spans.Now()
	endDecode := func(households int) {
		loop := time.Since(decodeStart)
		j.stats.Bytes, j.stats.BodyRead = mr.n, mr.dur
		j.stats.Decode = loop - mr.dur
		s.stageObserve("body.read", j.stats.BodyRead)
		s.stageObserve("inspector.decode", j.stats.Decode)
		s.spans.RecordSpan(j.ctx, "serve", "body.read", spanStart, mr.dur.Microseconds(),
			"bytes", strconv.FormatInt(mr.n, 10))
		s.spans.RecordSpan(j.ctx, "serve", "inspector.decode", spanStart, loop.Microseconds(),
			"households", strconv.Itoa(households))
	}
	dec := inspector.NewWireDecoder(mr)
	var hhs []*inspector.Household
	for {
		hh, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			endDecode(len(hhs))
			return s.uploadError(err, "inspector")
		}
		hhs = append(hhs, hh)
	}
	endDecode(len(hhs))
	aStart := time.Now()
	_, aspan := s.spans.StartSpan(j.ctx, "serve", "analysis")
	if err := s.ingest(j, hhs); err != nil {
		aspan.Fail()
		aspan.End()
		s.reg.Counter("serve_upload_rejected", "reason", "wal").Inc()
		return jobResult{status: http.StatusInternalServerError,
			body: s.errEnvelope(fmt.Sprintf("durable ingest failed: %v", err), s.cfg.RetryAfter)}
	}
	s.maybeCheckpoint()
	s.maybeSelfCheck()
	aspan.End()
	j.stats.Analysis = time.Since(aStart)
	s.stageObserve("analysis", j.stats.Analysis)
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

// captureReport is the JSON answer to a capture upload (and the capture
// half of the household report).
type captureReport struct {
	Household   string         `json:"household"`
	Frames      int            `json:"frames"`
	LocalFrames int            `json:"local_frames"`
	Protocols   map[string]int `json:"protocols"`
	Sources     int            `json:"sources"`
	ExposedAt   int            `json:"exposed_cells"`
}

// analyzeCapture decodes the records once (the same decode-once index the
// offline engine uses), derives the per-household summary, folds it into
// the household state, and renders the upload report.
func (s *Server) analyzeCapture(household string, records []pcap.Record) []byte {
	idx := pcap.NewIndex(records, 1)
	protocols := make(map[string]int, 4)
	for _, name := range idx.Protocols() {
		protocols[name] = len(idx.ByProto(name))
	}
	sources := make(map[string]bool)
	for _, p := range idx.Packets() {
		if p.HasEth {
			sources[p.Eth.Src.String()] = true
		}
	}
	exposure := analysis.BuildExposure(idx.Records)
	exposed := 0
	for _, proto := range analysis.ExposureRows {
		for _, f := range analysis.ExposureFields {
			if exposure.Exposed(proto, f) {
				exposed++
			}
		}
	}
	rep := captureReport{
		Household:   household,
		Frames:      idx.Len(),
		LocalFrames: len(idx.Local()),
		Protocols:   protocols,
		Sources:     len(sources),
		ExposedAt:   exposed,
	}

	sh := s.shardFor(household)
	sh.mu.Lock()
	st := sh.household(household)
	st.captures++
	st.frames += rep.Frames
	st.localFrames += rep.LocalFrames
	for k, v := range protocols {
		st.protocols[k] += v
	}
	for src := range sources {
		st.sources[src] = true
	}
	if exposed > st.exposed {
		st.exposed = exposed
	}
	sh.mu.Unlock()

	return mustJSON(rep)
}

// ingest folds an uploaded batch into the fleet (fold.go), foldChunk
// households at a time. Each chunk is prepared outside ckptGate; with
// durability on it is then written ahead — the prepared record bytes — and
// applied in upload order under the gate's read lock, which keeps every
// append+apply pair atomic with respect to checkpoint compaction (see
// checkpoint). The ack is backed by the log. A WAL error stops the batch:
// earlier chunks stay logged and applied, the client gets a 500, and its
// retry re-applies idempotently. Only touched shards' versions move, and
// the fleet version moves only if something actually changed.
func (s *Server) ingest(j *job, hhs []*inspector.Household) error {
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
		wStart, wspan := time.Now(), s.spans.Now()
		s.ckptGate.RLock()
		if err = s.walAppend(ps); err == nil {
			folded += s.applyUploads(ps)
		}
		s.ckptGate.RUnlock()
		d := time.Since(wStart) // includes the apply; dominated by fsync
		j.stats.WALAppend += d
		s.spans.RecordSpan(j.ctx, "serve", "wal.append", wspan, d.Microseconds(),
			"households", strconv.Itoa(len(ps)))
	}
	if s.wal != nil {
		s.stageObserve("wal.append", j.stats.WALAppend)
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

// cacheGet looks a digest up in the bounded result cache.
func (s *Server) cacheGet(digest [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	body, ok := s.cache[digest]
	s.mu.Unlock()
	if ok {
		s.reg.Counter("serve_cache", "result", "hit").Inc()
		return body, true
	}
	s.reg.Counter("serve_cache", "result", "miss").Inc()
	return nil, false
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
// by merging the shards' live partial aggregates (shard.go). Only the
// artifacts computed from uploads run; every other one — the lab's
// pipelines, and the static device inventory of table3 — returns
// ErrOfflineArtifact. Bodies are memoized under the per-shard version
// vector the merge observed (hit/miss metrics under serve_fleet_cache): the
// vector is read alongside each shard's partial, so a racing ingest can
// never get a mixed-state body memoized under a label a later read would
// trust. For a fixed household set the bytes equal the offline Study
// pipeline's regardless of upload concurrency, shard count or worker count.
// ctx carries the request's span for tracing (use context.Background()
// outside a request).
func (s *Server) RunFleetArtifact(ctx context.Context, name string) ([]byte, error) {
	a, ok := iotlan.ArtifactByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown artifact %q", name)
	}
	fa, ok := fleetArtifacts[a.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrOfflineArtifact, a.Name)
	}
	s.mu.Lock()
	memo, ok := s.fleetMemo[a.Name]
	s.mu.Unlock()
	if ok && s.shardVersionsMatch(memo.shardVers) {
		s.reg.Counter("serve_fleet_cache", "result", "hit").Inc()
		return memo.body, nil
	}
	s.reg.Counter("serve_fleet_cache", "result", "miss").Inc()

	bStart := time.Now()
	_, bspan := s.spans.StartSpan(ctx, "serve", "artifact.build", "artifact", a.Name)
	res, households, vers := fa.build(s, a.Name)
	bspan.End()
	s.stageObserve("artifact.build", time.Since(bStart))
	body := mustJSON(artifactReport{
		Name:       a.Name,
		PaperRef:   a.PaperRef,
		Kind:       a.Kind,
		Households: households,
		ID:         res.ID,
		Rendered:   res.Rendered,
		Metrics:    res.Metrics,
	})
	s.mu.Lock()
	s.fleetMemo[a.Name] = fleetEntry{shardVers: vers, body: body}
	s.mu.Unlock()
	return body, nil
}

// ErrOfflineArtifact marks registry artifacts the service does not compute
// from crowdsourced uploads: those needing the offline lab pipelines
// (passive capture, scans, vuln audit, app runs) and the lab's static
// device inventory.
var ErrOfflineArtifact = errors.New("artifact not computed from uploads")

// householdReport is the JSON answer to GET /v1/households/{id}/report.
type householdReport struct {
	Household   string            `json:"household"`
	Captures    int               `json:"captures"`
	Frames      int               `json:"frames"`
	LocalFrames int               `json:"local_frames"`
	Protocols   map[string]int    `json:"protocols"`
	Sources     int               `json:"sources"`
	ExposedAt   int               `json:"exposed_cells"`
	Inspector   *inspectorSummary `json:"inspector,omitempty"`
}

type inspectorSummary struct {
	Devices     int            `json:"devices"`
	Identifiers map[string]int `json:"identifiers"`
	Identified  int            `json:"identified_vendors"`
}

// report renders a household's accumulated state, or ok=false if the
// household has never uploaded.
func (s *Server) report(id string) ([]byte, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	st, ok := sh.households[id]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	rep := householdReport{
		Household:   id,
		Captures:    st.captures,
		Frames:      st.frames,
		LocalFrames: st.localFrames,
		Protocols:   make(map[string]int, len(st.protocols)),
		Sources:     len(st.sources),
		ExposedAt:   st.exposed,
	}
	for k, v := range st.protocols {
		rep.Protocols[k] = v
	}
	hh := st.inspector
	sh.mu.Unlock()

	if hh != nil {
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
		rep.Inspector = sum
	}
	return mustJSON(rep), true
}

// fleetSummary is the JSON answer to GET /v1/fleet.
type fleetSummary struct {
	Households          int    `json:"households"`
	InspectorHouseholds int    `json:"inspector_households"`
	Devices             int    `json:"devices"`
	Frames              int    `json:"frames"`
	Version             uint64 `json:"version"`
}

// fleet summarizes everything ingested so far.
func (s *Server) fleet() []byte {
	sum := fleetSummary{Version: s.fleetVersion.Load()}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sum.Households += len(sh.households)
		for _, st := range sh.households {
			sum.Frames += st.frames
			if st.inspector != nil {
				sum.InspectorHouseholds++
				sum.Devices += len(st.inspector.Devices)
			}
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
// admission pressure at response time, so client logs always carry queue
// state without per-status parsing.
func (s *Server) errEnvelope(msg string, retryAfter time.Duration) []byte {
	return mustJSON(struct {
		Error         string `json:"error"`
		RetryAfterMS  int64  `json:"retry_after_ms"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
	}{msg, retryAfter.Milliseconds(), len(s.queue), s.cfg.QueueCapacity})
}

// logUpload emits the one structured line per upload: who, what, how long
// in each stage, and under what admission pressure.
func (s *Server) logUpload(kind, household string, status int, st uploadStats, cache string, admitDepth int, total time.Duration) {
	if s.logger == nil {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s.logger.Info("upload",
		"kind", kind,
		"household", household,
		"status", status,
		"bytes", st.Bytes,
		"total_ms", ms(total),
		"queue_wait_ms", ms(st.QueueWait),
		"body_read_ms", ms(st.BodyRead),
		"decode_ms", ms(st.Decode),
		"analysis_ms", ms(st.Analysis),
		"cache_lookup_ms", ms(st.CacheLookup),
		"wal_ms", ms(st.WALAppend),
		"cache", cache,
		"queue_depth_admit", admitDepth,
	)
}

// defaultWorkers mirrors the engine convention: unset means one per CPU.
func defaultWorkers() int { return runtime.NumCPU() }
