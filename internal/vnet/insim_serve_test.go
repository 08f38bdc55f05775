package vnet_test

// The in-sim iotserve smoke: an unmodified net/http.Server serving the real
// iotserve mux over a vnet.Listener, driven by in-sim HTTP clients on
// another simulated host, with zero real sockets. The acceptance bar is that
// artifacts served in-sim are byte-identical to the offline Study pipeline
// and to the stdlib handler path, whatever the worker count — and that chaos
// impairment on the LAN degrades and recovers the service deterministically.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iotlan"
	"iotlan/internal/chaos"
	"iotlan/internal/inspector"
	"iotlan/internal/serve"
	"iotlan/internal/vnet"
)

// rawClient is a minimal in-sim HTTP/1.1 client: one persistent keep-alive
// connection, identity framing only (the service sets Content-Length on
// every response). It deliberately avoids net/http's Transport: its
// goroutine pair would add scheduling noise the determinism tests cannot
// afford, and fifty lines of HTTP is the honest cost of a byte-deterministic
// client.
type rawClient struct {
	n    *vnet.Net
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// abandon drops the connection without closing it: a close would send FIN/RST
// into a network that may be partitioned, and the caller is usually holding a
// timeout it is about to retry through. The simulated host carries the dead
// conn state for the rest of the test, like a real kernel carrying a stuck
// flow until timeout.
func (rc *rawClient) abandon() { rc.c, rc.br = nil, nil }

// close closes the connection politely (end of a client's session).
func (rc *rawClient) close() {
	if rc.c != nil {
		rc.c.Close()
		rc.abandon()
	}
}

// roundTrip sends one request and reads the full response. A zero deadline
// means no read deadline. On any transport error the connection is
// abandoned and the error returned — the caller decides whether to retry.
func (rc *rawClient) roundTrip(method, path string, body []byte, deadline time.Time) (int, []byte, error) {
	if rc.c == nil {
		c, err := rc.n.Dial("tcp", rc.addr)
		if err != nil {
			return 0, nil, err
		}
		rc.c, rc.br = c, bufio.NewReader(c)
	}
	if err := rc.c.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	var req bytes.Buffer
	fmt.Fprintf(&req, "%s %s HTTP/1.1\r\nHost: iotserve\r\nContent-Length: %d\r\n\r\n", method, path, len(body))
	req.Write(body)
	if _, err := rc.c.Write(req.Bytes()); err != nil {
		rc.abandon()
		return 0, nil, err
	}
	status, hdr, err := rc.readHeader()
	if err != nil {
		rc.abandon()
		return 0, nil, err
	}
	clen, err := strconv.Atoi(hdr["content-length"])
	if err != nil {
		rc.abandon()
		return 0, nil, fmt.Errorf("response without Content-Length: %v", err)
	}
	resp := make([]byte, clen)
	if _, err := io.ReadFull(rc.br, resp); err != nil {
		rc.abandon()
		return 0, nil, err
	}
	return status, resp, nil
}

func (rc *rawClient) readHeader() (int, map[string]string, error) {
	line, err := rc.br.ReadString('\n')
	if err != nil {
		return 0, nil, err
	}
	parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(parts) < 2 {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	hdr := make(map[string]string)
	for {
		line, err := rc.br.ReadString('\n')
		if err != nil {
			return 0, nil, err
		}
		line = strings.TrimSpace(line)
		if line == "" {
			return status, hdr, nil
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			hdr[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
}

// startInSimServe binds the iotserve mux to host b's port 80 behind an
// unmodified net/http.Server. The accept loop is a pump actor, so the clock
// waits for its first Accept. Teardown runs after the pump has stopped, when
// inline operations are safe again.
func startInSimServe(t *testing.T, f *fix, cfg serve.Config) *serve.Server {
	t.Helper()
	s := serve.New(cfg)
	l, err := f.b.Listen("tcp", ":80")
	if err != nil {
		t.Fatalf("in-sim listen: %v", err)
	}
	hs := serve.NewHTTPServer("", s.Mux())
	f.pump.Go(func() { hs.Serve(l) })
	t.Cleanup(func() {
		// A goroutine still parked in an operation the stopped pump never
		// ran would wedge Close; fail with a goroutine dump instead.
		closed := make(chan struct{})
		go func() {
			hs.Close()
			s.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Errorf("in-sim serve teardown hung\n%s", goroutines())
		}
	})
	return s
}

// uploadWithRetry pushes one wire body until the service accepts it,
// honoring the error envelope's retry_after_ms and retrying transport
// timeouts on a fresh connection. Returns how many attempts were spent.
func uploadWithRetry(t *testing.T, f *fix, rc *rawClient, path string, body []byte, tally *chaosTally) bool {
	for attempt := 0; attempt < 60; attempt++ {
		deadline := f.pump.Now().Add(2 * time.Second)
		status, resp, err := rc.roundTrip("POST", path, body, deadline)
		switch {
		case err != nil:
			tally.netErrors++
			f.pump.Sleep(250 * time.Millisecond)
		case status == http.StatusOK:
			tally.ok++
			return true
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			tally.shed++
			var env struct {
				RetryAfterMS int64 `json:"retry_after_ms"`
			}
			json.Unmarshal(resp, &env)
			wait := time.Duration(env.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = 250 * time.Millisecond
			}
			f.pump.Sleep(wait)
		default:
			t.Errorf("upload %s: unexpected status %d: %s", path, status, resp)
			return false
		}
	}
	t.Errorf("upload %s: retries exhausted", path)
	return false
}

type chaosTally struct {
	ok        int
	shed      int
	netErrors int
}

// runInSimServe drives one full in-sim scenario: `clients` concurrent in-sim
// HTTP clients split the dataset's households between them and upload each
// over keep-alive connections; the client whose last upload lands last then
// fetches the table2 artifact. Returns the artifact bytes.
func runInSimServe(t *testing.T, ds *inspector.Dataset, workers, clients int) []byte {
	t.Helper()
	f := newFix(1)
	startInSimServe(t, f, serve.Config{Workers: workers, QueueCapacity: len(ds.Households)})

	var remaining atomic.Int32
	remaining.Store(int32(clients))
	var artifact []byte
	var dones []<-chan struct{}
	for ci := 0; ci < clients; ci++ {
		ci := ci
		dones = append(dones, f.pump.Go(func() {
			rc := &rawClient{n: f.a, addr: "192.168.10.11:80"}
			defer rc.close()
			var tally chaosTally
			for hi, h := range ds.Households {
				if hi%clients != ci {
					continue
				}
				var buf bytes.Buffer
				if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
					t.Errorf("encode: %v", err)
					return
				}
				if !uploadWithRetry(t, f, rc, "/v1/ingest/inspector", buf.Bytes(), &tally) {
					return
				}
			}
			// Collecting on the last finisher's own connection keeps every
			// step a pump-visible operation: a collector blocked on the
			// clients' done channels would hold its birth grant meanwhile.
			if remaining.Add(-1) == 0 {
				artifact = collect(t, rc, len(ds.Households))
			}
		}))
	}
	f.pump.RunFor(5 * time.Minute)
	for _, d := range dones {
		wait(t, d, "client")
	}
	checkNoResets(t, f)
	return artifact
}

// collect fetches the table2 artifact and checks the fleet size.
func collect(t *testing.T, rc *rawClient, households int) []byte {
	status, artifact, err := rc.roundTrip("GET", "/v1/artifacts/table2", nil, time.Time{})
	if err != nil || status != http.StatusOK {
		t.Errorf("artifact fetch: status %d err %v", status, err)
		return nil
	}
	status, body, err := rc.roundTrip("GET", "/v1/fleet", nil, time.Time{})
	if err != nil || status != http.StatusOK {
		t.Errorf("fleet fetch: status %d err %v", status, err)
		return artifact
	}
	var fl struct {
		Households int `json:"households"`
	}
	if err := json.Unmarshal(body, &fl); err != nil || fl.Households != households {
		t.Errorf("fleet households %d, want %d (err %v)", fl.Households, households, err)
	}
	return artifact
}

// checkNoResets fails the test if the pump's stall valve ever fired: every
// clock step must have waited for the in-sim goroutines, not for real time.
func checkNoResets(t *testing.T, f *fix) {
	t.Helper()
	if resets := f.sched.Telemetry.Registry.Total("vnet_grant_resets"); resets != 0 {
		t.Fatalf("vnet_grant_resets = %d: the virtual clock was driven by the real-time valve", resets)
	}
}

// TestInSimHTTPServe is the tentpole smoke: the real iotserve mux under an
// unmodified net/http.Server, served entirely in-sim over vnet, yields
// byte-identical artifacts with 1 and 4 workers, equal to the stdlib handler
// path and to the offline Study pipeline.
func TestInSimHTTPServe(t *testing.T) {
	const seed, households = 42, 12
	ds := inspector.Generate(seed, households)

	one := runInSimServe(t, ds, 1, 3)
	four := runInSimServe(t, ds, 4, 3)
	if !bytes.Equal(one, four) {
		t.Fatalf("in-sim table2 differs between workers=1 and workers=4:\n%s\nvs\n%s", one, four)
	}

	// The stdlib handler path (httptest recorder straight into the mux) must
	// serve the same bytes for the same fleet.
	s := serve.New(serve.Config{Workers: 2, QueueCapacity: households})
	defer s.Close()
	mux := s.Mux()
	for _, h := range ds.Households {
		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/ingest/inspector", &buf)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("recorder upload: %d %s", w.Code, w.Body.String())
		}
	}
	req := httptest.NewRequest("GET", "/v1/artifacts/table2", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("recorder artifact: %d", w.Code)
	}
	if !bytes.Equal(one, w.Body.Bytes()) {
		t.Fatalf("in-sim table2 differs from handler path:\n%s\nvs\n%s", one, w.Body.Bytes())
	}

	// And both must match the offline pipeline.
	study := iotlan.New(0, iotlan.WithHouseholds(households))
	study.Inspector = ds
	offline, err := study.RunArtifact("table2")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Rendered string             `json:"rendered"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(one, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rendered != offline.Rendered {
		t.Fatalf("in-sim table2 differs from offline Study:\n--- served\n%s--- offline\n%s", got.Rendered, offline.Rendered)
	}
	for k, v := range offline.Metrics {
		if got.Metrics[k] != v {
			t.Fatalf("metric %s: served %v, offline %v", k, got.Metrics[k], v)
		}
	}
}

// runChaosScenario is one full impaired serve run: frame loss plus a
// partition window between the client and the service, one sequential
// client retrying through it on virtual-time deadlines. Returns a snapshot
// of every determinism-relevant outcome.
func runChaosScenario(t *testing.T, seed int64, ds *inspector.Dataset) string {
	t.Helper()
	f := newFix(seed)
	plan := chaos.Plan{
		Name: "insim-serve",
		Loss: 0.02,
		Partitions: []chaos.Partition{
			{Start: 2 * time.Second, Duration: 3 * time.Second, Isolate: 0.5},
		},
	}
	eng := chaos.New(f.sched, f.ln, plan)
	s := startInSimServe(t, f, serve.Config{Workers: 2, QueueCapacity: 4, RetryAfter: 500 * time.Millisecond})

	var tally chaosTally
	var artifactSum [sha256.Size]byte
	client := f.pump.Go(func() {
		rc := &rawClient{n: f.a, addr: "192.168.10.11:80"}
		defer rc.close()
		for _, h := range ds.Households {
			var buf bytes.Buffer
			if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			if !uploadWithRetry(t, f, rc, "/v1/ingest/inspector", buf.Bytes(), &tally) {
				return
			}
			// A beat between uploads walks the run across the partition
			// window instead of racing past it before impairment starts.
			f.pump.Sleep(400 * time.Millisecond)
		}
		for attempt := 0; ; attempt++ {
			deadline := f.pump.Now().Add(2 * time.Second)
			status, body, err := rc.roundTrip("GET", "/v1/artifacts/table2", nil, deadline)
			if err != nil {
				tally.netErrors++
				f.pump.Sleep(250 * time.Millisecond)
				if attempt > 60 {
					t.Error("artifact fetch: retries exhausted")
					return
				}
				continue
			}
			if status != http.StatusOK {
				t.Errorf("artifact fetch: status %d: %s", status, body)
				return
			}
			artifactSum = sha256.Sum256(body)
			return
		}
	})
	f.pump.RunFor(2 * time.Minute)
	wait(t, client, "chaos client")
	checkNoResets(t, f)
	reg := s.Registry()
	return fmt.Sprintf("ok=%d shed=%d neterrs=%d faults=%d responses=%d uploads=%d rejected=%d cache=%d artifact=%x",
		tally.ok, tally.shed, tally.netErrors, eng.Faults(),
		reg.Total("serve_responses"), reg.Total("serve_uploads"),
		reg.Total("serve_upload_rejected"), reg.Total("serve_cache"),
		artifactSum)
}

// TestInSimServeChaosDeterministic: chaos impairment degrades the in-sim
// service (timeouts and retries happen) and the service recovers (every
// upload eventually lands); two same-seed runs produce byte-identical
// outcome snapshots — counters, fault counts, and artifact hash — because
// every retry decision rides the virtual clock, not the machine's.
func TestInSimServeChaosDeterministic(t *testing.T) {
	const seed = 7
	ds := inspector.Generate(21, 6)
	first := runChaosScenario(t, seed, ds)
	second := runChaosScenario(t, seed, ds)
	if first != second {
		t.Fatalf("same-seed chaos runs diverged:\n%s\nvs\n%s", first, second)
	}
	var ok, neterrs int
	if _, err := fmt.Sscanf(first, "ok=%d shed=%d neterrs=%d", &ok, new(int), &neterrs); err != nil {
		t.Fatalf("snapshot unparseable: %v (%s)", err, first)
	}
	if ok != len(ds.Households) {
		t.Fatalf("service did not recover: %d/%d uploads landed (%s)", ok, len(ds.Households), first)
	}
	if neterrs == 0 {
		t.Fatalf("impairment never degraded the service — the chaos plan is a no-op (%s)", first)
	}
}
