package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iotlan"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
)

// testGate returns a close-once gate channel whose release is also
// registered as a cleanup, so a t.Fatal between gating and releasing can
// never wedge the server's Close in a later cleanup.
func testGate(t *testing.T) (chan struct{}, func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return gate, release
}

// newTestServer builds a server with small, test-friendly bounds. The
// caller must Close it.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// do runs one request through the service mux.
func do(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Mux().ServeHTTP(w, req)
	return w
}

// capturePCAP renders a household's synthetic capture as a libpcap body.
func capturePCAP(t *testing.T, h *inspector.Household) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pcap.WriteFile(&buf, inspector.SyntheticCapture(h)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireBody renders households in the upload wire format.
func wireBody(t testing.TB, hs ...*inspector.Household) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := inspector.EncodeWire(&buf, hs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUploadMalformed: garbage, wrong magic, and mid-record truncation all
// answer 400 with a JSON error — never a panic, never a 200.
func TestUploadMalformed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ds := inspector.Generate(1, 1)
	valid := capturePCAP(t, ds.Households[0])

	cases := map[string][]byte{
		"garbage":        []byte("not a pcap at all"),
		"empty":          nil,
		"bad magic":      append([]byte{0xde, 0xad, 0xbe, 0xef}, valid[4:]...),
		"truncated body": valid[:len(valid)-3],
		"short header":   valid[:10],
	}
	for name, body := range cases {
		w := do(s, "POST", "/v1/households/h1/capture", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", name, w.Code, w.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", name, w.Body.String())
		}
	}
	if got := s.reg.Total("serve_upload_rejected"); got < uint64(len(cases)) {
		t.Errorf("rejection counter %d, want >= %d", got, len(cases))
	}

	// Malformed wire bodies on the batch endpoint too.
	w := do(s, "POST", "/v1/ingest/inspector", []byte(`{"devices":[]}`))
	if w.Code != http.StatusBadRequest {
		t.Errorf("wire without id: status %d, want 400", w.Code)
	}
}

// TestUploadOversized: a body over MaxUploadBytes is cut off by the
// http.MaxBytesReader wrapper and answered with 413.
func TestUploadOversized(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxUploadBytes: 512})
	ds := inspector.Generate(2, 4)
	body := wireBody(t, ds.Households...)
	for len(body) <= 512 {
		body = append(body, body...)
	}
	w := do(s, "POST", "/v1/ingest/inspector", body)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", w.Code, w.Body.String())
	}
	if s.reg.CounterValue(obs.Key("serve_upload_rejected", "reason", "oversized")) == 0 {
		t.Fatal("oversized rejection not counted")
	}

	big := capturePCAP(t, ds.Households[0])
	if len(big) <= 512 {
		t.Fatalf("synthetic capture unexpectedly small: %d bytes", len(big))
	}
	w = do(s, "POST", "/v1/households/h1/capture", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("capture status %d, want 413", w.Code)
	}
}

// TestUploadRecordOverBound: a capture record whose header declares one
// byte more than pcap.DefaultMaxRecordBytes is refused as malformed (400)
// before its body is read, even after valid records.
func TestUploadRecordOverBound(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := capturePCAP(t, inspector.Generate(3, 1).Households[0])
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[8:12], pcap.DefaultMaxRecordBytes+1)
	binary.LittleEndian.PutUint32(hdr[12:16], pcap.DefaultMaxRecordBytes+1)
	w := do(s, "POST", "/v1/households/h1/capture", append(body, hdr[:]...))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", w.Code, w.Body.String())
	}
	if n := s.reg.CounterValue(obs.Key("serve_upload_rejected", "reason", "malformed")); n != 1 {
		t.Fatalf("serve_upload_rejected{reason=malformed} = %d, want 1", n)
	}
}

// holdTwoUploads fills both admission slots of a Workers 1, QueueCapacity 1
// server with capture uploads gated inside processing, and returns once both
// are processing at once: neither waits for the other. release opens the
// gate; finish waits for both uploads and returns their status codes.
func holdTwoUploads(t *testing.T, s *Server, path string, hs []*inspector.Household) (release func(), finish func() []int) {
	t.Helper()
	gate, release := testGate(t)
	entered := make(chan struct{}, 8)
	s.processHook = func(*job) {
		entered <- struct{}{}
		<-gate
	}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(s, "POST", path, capturePCAP(t, hs[i])).Code
		}(i)
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("upload %d never started processing: it is waiting behind another upload", i)
		}
	}
	return release, func() []int {
		wg.Wait()
		return codes
	}
}

// TestQueueFullBackpressure: with both admission slots held by running
// uploads, the next upload is shed with 429 + Retry-After and the error
// envelope before any of its body is consumed. Opening the gate lets the
// admitted uploads finish with 200.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCapacity: 1, RetryAfter: 3 * time.Second})
	ds := inspector.Generate(3, 3)
	release, finish := holdTwoUploads(t, s, "/v1/households/hq/capture", ds.Households)

	// Both slots taken: the third upload must bounce without being read.
	body := bytes.NewReader(capturePCAP(t, ds.Households[2]))
	w := httptest.NewRecorder()
	s.Mux().ServeHTTP(w, httptest.NewRequest("POST", "/v1/households/hq/capture", body))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if body.Len() != int(body.Size()) {
		t.Fatalf("shed upload had %d of %d body bytes consumed", int(body.Size())-body.Len(), body.Size())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	// The 429 body is the unified error envelope: message, machine-usable
	// retry hint, and admission pressure (uploads admitted, admission bound).
	var shed struct {
		Error         string `json:"error"`
		RetryAfterMS  int64  `json:"retry_after_ms"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &shed); err != nil {
		t.Fatalf("429 body not JSON: %v", err)
	}
	if shed.Error == "" || shed.QueueDepth != 2 || shed.QueueCapacity != 2 {
		t.Fatalf("429 body missing admission state: %+v", shed)
	}
	if shed.RetryAfterMS != 3000 {
		t.Fatalf("retry_after_ms %d, want 3000", shed.RetryAfterMS)
	}
	if s.reg.CounterValue(obs.Key("serve_upload_rejected", "reason", "queue_full")) == 0 {
		t.Fatal("queue_full rejection not counted")
	}
	if s.reg.CounterValue(obs.Key("serve_responses", "code", "429")) == 0 {
		t.Fatal("429 response not counted")
	}

	release()
	for i, code := range finish() {
		if code != http.StatusOK {
			t.Fatalf("admitted upload %d finished %d, want 200", i, code)
		}
	}
}

// TestInlineAdmission: every admitted upload runs inline, on its own
// request goroutine. With Workers 1 and QueueCapacity 1 two uploads are
// processed at once, the third is shed with 429, Close waits for the
// admitted uploads to finish, and both end 200.
func TestInlineAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCapacity: 1})
	ds := inspector.Generate(3, 3)
	release, finish := holdTwoUploads(t, s, "/v1/households/hi/capture", ds.Households)

	if w := do(s, "POST", "/v1/households/hi/capture", capturePCAP(t, ds.Households[2])); w.Code != http.StatusTooManyRequests {
		t.Fatalf("third upload status %d, want 429", w.Code)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, s.Draining)
	select {
	case <-closed:
		t.Fatal("Close returned while admitted uploads were still running")
	default:
	}
	release()
	codes := finish()
	<-closed
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted upload %d finished %d, want 200", i, code)
		}
	}
	if got := s.reg.Total("serve_uploads"); got != 2 {
		t.Fatalf("serve_uploads = %d, want 2", got)
	}
}

// TestErrorEnvelopeEverywhere: every 4xx/5xx on the v1 surface carries the
// unified envelope — error message, retry_after_ms hint (zero when retrying
// cannot help), and queue_depth — so clients parse one shape.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RetryAfter: 2 * time.Second})
	cases := []struct {
		name, method, path string
		body               []byte
		want               int
		retryable          bool
	}{
		{"malformed upload", "POST", "/v1/households/he/capture", []byte("junk"), 400, false},
		{"unknown household", "GET", "/v1/households/ghost/report", nil, 404, false},
		{"unknown artifact", "GET", "/v1/artifacts/nope", nil, 404, false},
		{"offline artifact", "GET", "/v1/artifacts/table1", nil, 409, false},
		{"static inventory artifact", "GET", "/v1/artifacts/table3", nil, 409, false},
	}
	check := func(name string, w *httptest.ResponseRecorder, want int, retryable bool) {
		t.Helper()
		if w.Code != want {
			t.Fatalf("%s: status %d, want %d; body %s", name, w.Code, want, w.Body.String())
		}
		var e struct {
			Error        *string `json:"error"`
			RetryAfterMS *int64  `json:"retry_after_ms"`
			QueueDepth   *int    `json:"queue_depth"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body not JSON: %v: %s", name, err, w.Body.String())
		}
		if e.Error == nil || *e.Error == "" || e.RetryAfterMS == nil || e.QueueDepth == nil {
			t.Fatalf("%s: envelope incomplete: %s", name, w.Body.String())
		}
		if retryable && *e.RetryAfterMS <= 0 {
			t.Fatalf("%s: retryable error with retry_after_ms %d", name, *e.RetryAfterMS)
		}
		if !retryable && *e.RetryAfterMS != 0 {
			t.Fatalf("%s: terminal error with retry_after_ms %d", name, *e.RetryAfterMS)
		}
	}
	for _, c := range cases {
		check(c.name, do(s, c.method, c.path, c.body), c.want, c.retryable)
	}
	// Draining 503s advertise a retry: the drain is expected to end in a
	// restart the client can wait out.
	s.Drain()
	w := do(s, "POST", "/v1/households/he/capture", capturePCAP(t, inspector.Generate(11, 1).Households[0]))
	check("draining upload", w, 503, true)
}

// TestCacheHitOnDuplicateUpload: re-uploading the same bytes answers from
// the content-hash cache — X-Cache: hit, hit counter incremented, and the
// identical report body.
func TestCacheHitOnDuplicateUpload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	body := capturePCAP(t, inspector.Generate(4, 1).Households[0])

	first := do(s, "POST", "/v1/households/hc/capture", body)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first upload: %d X-Cache=%q", first.Code, first.Header().Get("X-Cache"))
	}
	second := do(s, "POST", "/v1/households/hc/capture", body)
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second upload: %d X-Cache=%q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached report differs from computed report")
	}
	if s.reg.CounterValue(obs.Key("serve_cache", "result", "hit")) != 1 {
		t.Fatalf("cache hit counter %d, want 1", s.reg.CounterValue(obs.Key("serve_cache", "result", "hit")))
	}

	// Captures leave no household state, hit or miss.
	if rep := do(s, "GET", "/v1/households/hc/report", nil); rep.Code != http.StatusNotFound {
		t.Fatalf("report after capture-only uploads: %d, want 404", rep.Code)
	}
}

// TestCacheIsPerHousehold: byte-identical capture bodies uploaded by two
// different households must not share a cache entry — each household gets a
// reply naming itself, and neither leaves state behind.
func TestCacheIsPerHousehold(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := capturePCAP(t, inspector.Generate(9, 1).Households[0])

	a := do(s, "POST", "/v1/households/ha/capture", body)
	b := do(s, "POST", "/v1/households/hb/capture", body)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("uploads: %d / %d, want 200 / 200", a.Code, b.Code)
	}
	if got := b.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("second household's upload X-Cache=%q, want miss (must not reuse ha's entry)", got)
	}
	for rec, want := range map[*httptest.ResponseRecorder]string{a: "ha", b: "hb"} {
		var rep captureReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Household != want {
			t.Fatalf("report names household %q, want %q", rep.Household, want)
		}
	}

	// Captures are stateless: neither household has a report, and the
	// fleet counts no households.
	for _, id := range []string{"ha", "hb"} {
		if rep := do(s, "GET", "/v1/households/"+id+"/report", nil); rep.Code != http.StatusNotFound {
			t.Fatalf("%s report: %d, want 404", id, rep.Code)
		}
	}
	var f fleetSummary
	if err := json.Unmarshal(do(s, "GET", "/v1/fleet", nil).Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Households != 0 {
		t.Fatalf("fleet households %d, want 0", f.Households)
	}

	// Same household re-uploading the same bytes still hits the cache.
	if got := do(s, "POST", "/v1/households/ha/capture", body).Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("same-household duplicate X-Cache=%q, want hit", got)
	}
}

// TestCaptureReportIndependentOfCache: a capture's reply, the household
// report and the fleet summary are the same bytes whether the result cache
// retains the reply or is too small to. Household h2 has an inspector record;
// h1's capture fills a one-entry cache, so h2's re-posted capture misses
// there and hits under the default size.
func TestCaptureReportIndependentOfCache(t *testing.T) {
	ds := inspector.Generate(16, 2)
	h1, h2 := ds.Households[0], ds.Households[1]
	run := func(cacheEntries int) []string {
		s := newTestServer(t, Config{Workers: 1, CacheEntries: cacheEntries})
		if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, h2)); w.Code != http.StatusOK {
			t.Fatalf("wire upload: %d", w.Code)
		}
		var out []string
		for _, h := range []*inspector.Household{h1, h2, h2} {
			w := do(s, "POST", "/v1/households/"+h.ID+"/capture", capturePCAP(t, h))
			if w.Code != http.StatusOK {
				t.Fatalf("capture %s: %d %s", h.ID, w.Code, w.Body.String())
			}
			out = append(out, w.Body.String())
		}
		for _, path := range []string{"/v1/households/" + h1.ID + "/report", "/v1/households/" + h2.ID + "/report", "/v1/fleet"} {
			w := do(s, "GET", path, nil)
			out = append(out, fmt.Sprintf("%s %d %s", path, w.Code, w.Body.String()))
		}
		return out
	}
	full, tiny := run(0), run(1)
	for i := range full {
		if full[i] != tiny[i] {
			t.Fatalf("answer %d depends on the result cache:\ndefault cache: %s\none entry:     %s", i, full[i], tiny[i])
		}
	}
}

// TestTimeoutAbandonsUpload: when the request deadline passes while an
// admitted upload is held before processing, it is answered 503 without
// being processed.
func TestTimeoutAbandonsUpload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	s.processHook = func(j *job) {
		if j.ctx != nil {
			<-j.ctx.Done() // hold the job until its deadline passes
		}
	}
	w := do(s, "POST", "/v1/households/ht/capture", capturePCAP(t, inspector.Generate(10, 1).Households[0]))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", w.Code, w.Body.String())
	}
	if s.reg.CounterValue(obs.Key("serve_jobs_cancelled", "kind", "capture")) == 0 {
		t.Fatal("cancelled job not counted")
	}
	if s.reg.CounterValue(obs.Key("serve_upload_rejected", "reason", "timeout")) == 0 {
		t.Fatal("timeout rejection not counted")
	}
}

// TestCtxReaderAborts: an upload's body stream fails with the context error
// once the request is cancelled, so a mid-stream timeout ends the read loop
// promptly instead of racing connection teardown.
func TestCtxReaderAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &ctxReader{ctx: ctx, r: strings.NewReader("abc")}
	buf := make([]byte, 1)
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("read before cancel: %v", err)
	}
	cancel()
	if _, err := r.Read(buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: err=%v, want context.Canceled", err)
	}
}

// TestGracefulDrain: draining finishes the gated in-flight upload (200)
// while refusing new ones (503), and Close returns once it has finished.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueCapacity: 4, RequestTimeout: 10 * time.Second})
	gate, release := testGate(t)
	entered := make(chan struct{}, 1)
	s.processHook = func(*job) {
		entered <- struct{}{}
		<-gate
	}

	ds := inspector.Generate(5, 2)
	var inflight *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		inflight = do(s, "POST", "/v1/households/hd/capture", capturePCAP(t, ds.Households[0]))
	}()
	<-entered

	s.Drain()
	w := do(s, "POST", "/v1/households/hd/capture", capturePCAP(t, ds.Households[1]))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("upload during drain: %d, want 503", w.Code)
	}
	if h := do(s, "GET", "/healthz", nil); h.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", h.Code)
	}

	release()
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not finish the admitted upload")
	}
	<-done
	if inflight.Code != http.StatusOK {
		t.Fatalf("in-flight upload finished %d, want 200", inflight.Code)
	}
}

// TestConcurrentIngestDeterministic: the acceptance gate — a fleet ingested
// concurrently with 1 worker and with 4 workers yields byte-identical
// Table 2 artifacts, both equal to the offline Study pipeline over the same
// dataset, for any shard count. Worker count, shard layout and upload
// interleaving never reach the output.
func TestConcurrentIngestDeterministic(t *testing.T) {
	const seed, households = 42, 24
	ds := inspector.Generate(seed, households)

	run := func(workers, shards int) []byte {
		s := newTestServer(t, Config{Workers: workers, Shards: shards, QueueCapacity: households})
		var wg sync.WaitGroup
		for _, h := range ds.Households {
			wg.Add(1)
			go func(h *inspector.Household) {
				defer wg.Done()
				for {
					w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, h))
					switch w.Code {
					case http.StatusOK:
						return
					case http.StatusTooManyRequests:
						time.Sleep(5 * time.Millisecond) // honor backpressure
					default:
						t.Errorf("ingest: unexpected status %d: %s", w.Code, w.Body.String())
						return
					}
				}
			}(h)
		}
		wg.Wait()
		w := do(s, "GET", "/v1/artifacts/table2", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: artifact status %d: %s", workers, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}

	one, four := run(1, 1), run(4, 1)
	if !bytes.Equal(one, four) {
		t.Fatalf("table2 differs between workers=1 and workers=4:\n%s\nvs\n%s", one, four)
	}
	// Sharding is observational: the partial-merge path over 8 shards must
	// produce the same bytes as the single-shard full pass.
	if sharded := run(4, 8); !bytes.Equal(one, sharded) {
		t.Fatalf("table2 differs between shards=1 and shards=8:\n%s\nvs\n%s", one, sharded)
	}

	// And both must match the offline pipeline byte for byte.
	study := iotlan.New(0, iotlan.WithHouseholds(households))
	study.Inspector = ds
	offline, err := study.RunArtifact("table2")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Households int                `json:"households"`
		ID         string             `json:"id"`
		Rendered   string             `json:"rendered"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(one, &got); err != nil {
		t.Fatal(err)
	}
	if got.Households != households {
		t.Fatalf("fleet has %d households, want %d", got.Households, households)
	}
	if got.Rendered != offline.Rendered {
		t.Fatalf("served Table 2 differs from offline Study:\n--- served\n%s--- offline\n%s", got.Rendered, offline.Rendered)
	}
	if len(got.Metrics) != len(offline.Metrics) {
		t.Fatalf("metric count %d vs offline %d", len(got.Metrics), len(offline.Metrics))
	}
	for k, v := range offline.Metrics {
		if got.Metrics[k] != v {
			t.Fatalf("metric %s: served %v, offline %v", k, got.Metrics[k], v)
		}
	}
}

// TestArtifactGating: artifacts not computed from uploads — those needing
// offline lab pipelines, and the lab's static device inventory — answer
// 409; unknown names answer 404; a repeat read returns identical bytes.
func TestArtifactGating(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(s, "GET", "/v1/artifacts/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d, want 404", w.Code)
	}
	for _, name := range []string{"table1", "table3"} {
		if w := do(s, "GET", "/v1/artifacts/"+name, nil); w.Code != http.StatusConflict {
			t.Fatalf("lab artifact %s: %d, want 409", name, w.Code)
		}
	}

	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, inspector.Generate(6, 5).Households...)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d", w.Code)
	}
	a := do(s, "GET", "/v1/artifacts/table2", nil)
	b := do(s, "GET", "/v1/artifacts/table2", nil)
	if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("repeat artifact read differs from the first")
	}
}

// TestReportAndFleetEndpoints: an inspector upload makes the household
// report and counts in the fleet summary; a capture alone does neither, and
// unknown households 404.
func TestReportAndFleetEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	if w := do(s, "GET", "/v1/households/ghost/report", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown household report: %d, want 404", w.Code)
	}

	ds := inspector.Generate(7, 2)
	h := ds.Households[0]
	if w := do(s, "POST", fmt.Sprintf("/v1/households/%s/capture", h.ID), capturePCAP(t, h)); w.Code != http.StatusOK {
		t.Fatalf("capture upload: %d %s", w.Code, w.Body.String())
	}
	if w := do(s, "GET", fmt.Sprintf("/v1/households/%s/report", h.ID), nil); w.Code != http.StatusNotFound {
		t.Fatalf("report after a capture alone: %d, want 404", w.Code)
	}
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, h)); w.Code != http.StatusOK {
		t.Fatalf("wire upload: %d", w.Code)
	}

	rep := do(s, "GET", fmt.Sprintf("/v1/households/%s/report", h.ID), nil)
	var r householdReport
	if err := json.Unmarshal(rep.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Household != h.ID || r.Inspector == nil {
		t.Fatalf("report missing data: %+v", r)
	}
	if r.Inspector.Devices != len(h.Devices) {
		t.Fatalf("report devices %d, want %d", r.Inspector.Devices, len(h.Devices))
	}

	fl := do(s, "GET", "/v1/fleet", nil)
	var f fleetSummary
	if err := json.Unmarshal(fl.Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Households != 1 || f.Devices != len(h.Devices) {
		t.Fatalf("fleet summary wrong: %+v", f)
	}
}

// TestDebugEndpoints: the operational surface serves Prometheus text at
// /metrics, with the stage histograms resolving microseconds, expvar, and
// the pprof index from the same mux.
func TestDebugEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, inspector.Generate(8, 1).Households...)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d", w.Code)
	}
	m := do(s, "GET", "/metrics", nil)
	if m.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", m.Code)
	}
	if ct := m.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q, want Prometheus exposition", ct)
	}
	for _, want := range []string{
		"# TYPE serve_uploads counter",
		"# TYPE serve_stage_ms histogram",
		`serve_stage_ms_bucket{le="0.001",stage="body.read"}`,
		`serve_stage_ms_bucket{le="+Inf",stage="body.read"}`,
		"serve_queue_depth",
		`serve_responses{code="200"}`,
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, m.Body.String())
		}
	}

	if w := do(s, "GET", "/debug/vars", nil); w.Code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", w.Code)
	}
	if w := do(s, "GET", "/debug/pprof/", nil); w.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", w.Code)
	}
	if w := do(s, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", w.Code)
	}
}

// waitFor polls until cond holds (or fails the test after a deadline) —
// used only to sequence goroutines around the test gate.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
