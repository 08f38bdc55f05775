package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"iotlan"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
)

// ingestFleet uploads every household concurrently (one batch each),
// honoring backpressure, and waits for all acks.
func ingestFleet(t *testing.T, s *Server, hhs []*inspector.Household) {
	t.Helper()
	var wg sync.WaitGroup
	for _, h := range hhs {
		wg.Add(1)
		go func(h *inspector.Household) {
			defer wg.Done()
			for {
				w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, h))
				switch w.Code {
				case http.StatusOK:
					return
				case http.StatusTooManyRequests:
					time.Sleep(5 * time.Millisecond)
				default:
					t.Errorf("ingest: unexpected status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(h)
	}
	wg.Wait()
}

// fetchArtifact GETs one fleet artifact and fails on non-200.
func fetchArtifact(t *testing.T, s *Server, name string) []byte {
	t.Helper()
	w := do(s, "GET", "/v1/artifacts/"+name, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("artifact %s: status %d: %s", name, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// deterministicCounters is the subset of /metrics that must be identical
// for any (shards, workers) combination given the same request sequence —
// admission, processing, caching, and response accounting. Timing
// histograms and gauges are excluded by construction.
var deterministicCounters = []string{
	obs.Key("serve_uploads", "kind", "inspector"),
	obs.Key("serve_jobs_done", "kind", "inspector"),
	obs.Key("serve_cache", "result", "hit"),
	obs.Key("serve_cache", "result", "miss"),
	obs.Key("serve_responses", "code", "200"),
	"serve_upload_frames",
}

// TestShardInvariance is the tentpole property test: every (shards,
// workers) combination serves byte-identical table2, mitigations, and fleet
// bodies — equal to the offline Study over the same corpus — and identical
// deterministic-counter snapshots. Sharding and parallelism are pure
// availability structure; no trace of them reaches any output surface.
func TestShardInvariance(t *testing.T) {
	const seed, households = 21, 48
	ds := inspector.Generate(seed, households)

	type snapshot struct {
		table2, mitigations, fleet []byte
		counters                   map[string]uint64
		shardsUsed                 int
	}
	run := func(shards, workers int) snapshot {
		// Queue capacity >= concurrent uploads: the ingest sequence (and so
		// the counter snapshot) is identical across configurations — no 429s.
		s := newTestServer(t, Config{Workers: workers, Shards: shards, QueueCapacity: households})
		ingestFleet(t, s, ds.Households)
		snap := snapshot{
			table2:      fetchArtifact(t, s, "table2"),
			mitigations: fetchArtifact(t, s, "mitigations"),
			counters:    make(map[string]uint64, len(deterministicCounters)),
			shardsUsed:  len(s.shards),
		}
		snap.fleet = do(s, "GET", "/v1/fleet", nil).Body.Bytes()
		for _, key := range deterministicCounters {
			snap.counters[key] = s.reg.CounterValue(key)
		}
		return snap
	}

	base := run(1, 1)
	if base.shardsUsed != 1 {
		t.Fatalf("shards=1 built %d shards", base.shardsUsed)
	}
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			got := run(shards, workers)
			if got.shardsUsed != shards {
				t.Fatalf("shards=%d built %d shards", shards, got.shardsUsed)
			}
			for name, pair := range map[string][2][]byte{
				"table2":      {base.table2, got.table2},
				"mitigations": {base.mitigations, got.mitigations},
				"fleet":       {base.fleet, got.fleet},
			} {
				if !bytes.Equal(pair[0], pair[1]) {
					t.Fatalf("shards=%d workers=%d: %s differs from shards=1 workers=1:\n%s\nvs\n%s",
						shards, workers, name, pair[1], pair[0])
				}
			}
			for _, key := range deterministicCounters {
				if got.counters[key] != base.counters[key] {
					t.Fatalf("shards=%d workers=%d: counter %s = %d, want %d",
						shards, workers, key, got.counters[key], base.counters[key])
				}
			}
		}
	}

	// And the served artifacts equal the offline Study byte-for-byte on the
	// rendered/metric surface.
	study := iotlan.New(0, iotlan.WithHouseholds(households))
	study.Inspector = ds
	for name, body := range map[string][]byte{"table2": base.table2, "mitigations": base.mitigations} {
		offline, err := study.RunArtifact(name)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Households int                `json:"households"`
			ID         string             `json:"id"`
			Rendered   string             `json:"rendered"`
			Metrics    map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Households != households || got.ID != offline.ID {
			t.Fatalf("%s: households=%d id=%q vs offline id=%q", name, got.Households, got.ID, offline.ID)
		}
		if got.Rendered != offline.Rendered {
			t.Fatalf("%s: served rendering differs from offline Study:\n--- served\n%s--- offline\n%s",
				name, got.Rendered, offline.Rendered)
		}
		if len(got.Metrics) != len(offline.Metrics) {
			t.Fatalf("%s: metric count %d vs offline %d", name, len(got.Metrics), len(offline.Metrics))
		}
		for k, v := range offline.Metrics {
			if got.Metrics[k] != v {
				t.Fatalf("%s: metric %s: served %v, offline %v", name, k, got.Metrics[k], v)
			}
		}
	}
}

// TestShardPartialInvalidation: a read reflects the fleet as it is at the
// read. After one household changes, the next table2 read differs from the
// one before it, and both artifacts equal the offline Study over the
// changed fleet.
func TestShardPartialInvalidation(t *testing.T) {
	const households = 32
	ds := inspector.Generate(33, households)
	s := newTestServer(t, Config{Workers: 2, Shards: 8, QueueCapacity: households})
	ingestFleet(t, s, ds.Households)
	before := fetchArtifact(t, s, "table2")

	// Re-upload one household with changed contents.
	hh := ds.Households[0]
	changed := &inspector.Household{ID: hh.ID, Devices: hh.Devices[:len(hh.Devices)-1]}
	if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, changed)); w.Code != http.StatusOK {
		t.Fatalf("re-upload: %d", w.Code)
	}
	fleet := append([]*inspector.Household{}, ds.Households...)
	fleet[0] = changed
	after := fetchArtifact(t, s, "table2")
	if bytes.Equal(before, after) {
		t.Fatal("table2 read after a household changed served the bytes from before the change")
	}
	assertServedEqualsOffline(t, after, fleet, "table2", "after change")
	assertServedEqualsOffline(t, fetchArtifact(t, s, "mitigations"), fleet, "mitigations", "after change")
}

// BenchmarkFleetArtifactRead times one read of each fleet artifact over 8
// shards at two fleet sizes. Nothing is cached between reads: every read
// folds all eight live aggregates into one partial and renders it, as a
// read under a writer churning the whole fleet does.
func BenchmarkFleetArtifactRead(b *testing.B) {
	for _, households := range []int{2000, 16000} {
		b.Run(fmt.Sprintf("households=%d", households), func(b *testing.B) {
			s := New(Config{Shards: 8})
			b.Cleanup(s.Close)
			fleet := inspector.Generate(5, households).Households
			// 1,000 households per body: 16,000 in one body would exceed
			// the default 64 MiB upload limit.
			for lo := 0; lo < len(fleet); lo += 1000 {
				body := wireBody(b, fleet[lo:min(lo+1000, len(fleet))]...)
				if w := do(s, "POST", "/v1/ingest/inspector", body); w.Code != http.StatusOK {
					b.Fatalf("ingest: %d %s", w.Code, w.Body.String())
				}
			}
			for _, name := range []string{"table2", "mitigations"} {
				b.Run(name, func(b *testing.B) {
					ctx := context.Background()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := s.RunFleetArtifact(ctx, name); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
