package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
	"iotlan/internal/serve"
	"iotlan/internal/serve/store"
)

// serverConfig is cmd/iotserve's default configuration: 8 shards, tracing
// on, a 4096-entry result cache, group-commit WAL, a checkpoint every 4096
// records, one worker per CPU and a text request log (discarded here).
func serverConfig(dataDir string) serve.Config {
	return serve.Config{
		CacheEntries:    4096,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		DataDir:         dataDir,
		Shards:          8,
		CheckpointEvery: 4096,
		WALSync:         store.SyncGroup,
	}
}

// server is an in-process serve.Server on a real 127.0.0.1 listener.
type server struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	served chan error
	once   sync.Once
}

func listen(srv *serve.Server) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, http: serve.NewHTTPServer("", srv.Mux()),
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for it, then drains and closes the
// service (a durable one writes its final checkpoint).
func (s *server) close() {
	s.once.Do(func() {
		s.http.Close()
		<-s.served
		s.srv.Close()
	})
}

// newClient holds at most two connections to the server: the load never
// uses more client threads than the reference host has cores.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
}

// upload is one pre-encoded POST.
type upload struct {
	path string
	body []byte
}

// post sends one upload, retrying 429s after a quarter of the server's
// retry hint (a 429 is backpressure, not a failure). It returns the number
// of 429 retries.
func post(ctx context.Context, c *http.Client, base string, u upload) (int, error) {
	retries := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+u.path, bytes.NewReader(u.body))
		if err != nil {
			return retries, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return retries, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return retries, nil
		case http.StatusTooManyRequests:
			retries++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(secs, 1)) * time.Second / 4)
		default:
			return retries, fmt.Errorf("POST %s: status %d", u.path, resp.StatusCode)
		}
	}
}

// get fetches a path and returns the body of a 200 answer.
func get(ctx context.Context, c *http.Client, base, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// servedChecksum fetches a fleet artifact and checksums it like iotbench.
func servedChecksum(ctx context.Context, c *http.Client, base, name string) (string, error) {
	body, err := get(ctx, c, base, "/v1/artifacts/"+name)
	if err != nil {
		return "", err
	}
	var r iotlan.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return "", fmt.Errorf("artifact %s: %w", name, err)
	}
	return checksum(r), nil
}

// checksum hashes results the way cmd/iotbench does: ID, rendition and
// sorted metrics of each, in order.
func checksum(results ...iotlan.Result) string {
	h := sha256.New()
	for _, r := range results {
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
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fleetReference is the offline answer for a household set: the checksums
// of Table 2 and the §7 mitigations computed straight from the partials.
type fleetReference struct{ table2, mitigations string }

func offlineReference(hhs []*inspector.Household) fleetReference {
	ids := analysis.ExtractIdentifiers(&inspector.Dataset{Households: hhs}, 0)
	ent := analysis.EntropyPartialOf(hhs, ids)
	mit := analysis.MitigationPartialOf(hhs, ids)
	return fleetReference{
		table2:      checksum(iotlan.EntropyResult(analysis.MergeEntropy([]*analysis.EntropyPartial{ent}))),
		mitigations: checksum(iotlan.MitigationResult(analysis.MergeMitigations([]*analysis.MitigationPartial{mit}))),
	}
}

// servedGate checks that the server's table2 and mitigations equal the
// offline reference.
func servedGate(ctx context.Context, c *http.Client, s *server, want fleetReference, when string) error {
	for _, a := range []struct{ name, want string }{{"table2", want.table2}, {"mitigations", want.mitigations}} {
		got, err := servedChecksum(ctx, c, s.base, a.name)
		if err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
		if got != a.want {
			return fmt.Errorf("%s: served %s checksum %.12s, offline %.12s", when, a.name, got, a.want)
		}
	}
	return nil
}

// selfCheckGate requires the server's live aggregates to equal a batch
// recompute of its households (serve.Server.SelfCheck).
func selfCheckGate(s *server, when string) error {
	if n := s.srv.SelfCheck(); n != 0 {
		return fmt.Errorf("%s: self-check found %d mismatches", when, n)
	}
	return nil
}

// worldSeed fixes the product world ingest and churn_read draw households
// from, so every seed's fleet has the same catalog and identifier classes;
// the run's seed picks which households.
const worldSeed = 1

// households draws n consecutive households of a product world, starting at
// an index the seed picks.
func households(world, seed int64, n int) []*inspector.Household {
	gen := inspector.NewGenerator(world)
	base := int(seed) << 24
	return engine.Map(0, n, func(i int) *inspector.Household { return gen.Household(base + i) })
}

// wireBody encodes households as one inspector wire-format upload body.
func wireBody(hhs ...*inspector.Household) []byte {
	var buf bytes.Buffer
	if err := inspector.EncodeWire(&buf, hhs); err != nil {
		panic(err) // EncodeWire fails only on writer errors; a Buffer has none
	}
	return buf.Bytes()
}
