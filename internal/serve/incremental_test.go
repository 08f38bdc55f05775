package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"iotlan"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
)

// offlineResult runs one artifact through the offline Study over a fixed
// household set — the ground truth every served body must match.
func offlineResult(t *testing.T, hhs []*inspector.Household, name string) iotlan.Result {
	t.Helper()
	study := iotlan.New(0, iotlan.WithHouseholds(len(hhs)))
	study.Inspector = &inspector.Dataset{Households: hhs}
	res, err := study.RunArtifact(name)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertServedEqualsOffline byte-compares a served artifact body's rendered
// surface against the offline Study.
func assertServedEqualsOffline(t *testing.T, body []byte, hhs []*inspector.Household, name, step string) {
	t.Helper()
	offline := offlineResult(t, hhs, name)
	var got struct {
		Households int                `json:"households"`
		ID         string             `json:"id"`
		Rendered   string             `json:"rendered"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s %s: %v", step, name, err)
	}
	if got.Households != len(hhs) || got.ID != offline.ID {
		t.Fatalf("%s %s: households=%d id=%q, want %d/%q", step, name, got.Households, got.ID, len(hhs), offline.ID)
	}
	if got.Rendered != offline.Rendered {
		t.Fatalf("%s %s: served rendering differs from offline Study:\n--- served\n%s--- offline\n%s",
			step, name, got.Rendered, offline.Rendered)
	}
	for k, v := range offline.Metrics {
		if got.Metrics[k] != v {
			t.Fatalf("%s %s: metric %s: served %v, offline %v", step, name, k, got.Metrics[k], v)
		}
	}
}

// TestIncrementalMatchesBatch is the incremental ≡ batch property test: for
// every (shards, workers) combination, an upload / idempotent re-upload /
// changed-content update sequence must serve artifact bytes identical across
// configurations and equal to the offline Study over the expected state
// after every step — with the shadow-batch SelfCheck clean throughout, an
// unchanged re-upload folding nothing, and a changed re-upload (the same
// household uploading twice with different contents) retracting its old
// contribution exactly.
func TestIncrementalMatchesBatch(t *testing.T) {
	const seed, households = 91, 40
	ds := inspector.Generate(seed, households)
	alt := inspector.Generate(seed+1, households)
	updated := append([]*inspector.Household{}, ds.Households...)
	for _, i := range []int{0, 7, 13} {
		updated[i] = &inspector.Household{ID: ds.Households[i].ID, Devices: alt.Households[i].Devices}
	}

	type bodies map[string][]byte
	var baseline []bodies // per step, from the first configuration
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			s := newTestServer(t, Config{Workers: workers, Shards: shards, QueueCapacity: households})
			var steps []bodies

			// Step 1: initial concurrent upload of the whole corpus.
			ingestFleet(t, s, ds.Households)

			// Step 2: idempotent re-upload. A batch carrying unchanged
			// households must fold nothing: the fleet version stays put.
			check := func(step string, expect []*inspector.Household) {
				t.Helper()
				b := bodies{}
				for _, name := range []string{"table2", "mitigations"} {
					b[name] = fetchArtifact(t, s, name)
					assertServedEqualsOffline(t, b[name], expect, name, step)
				}
				if n := s.SelfCheck(); n != 0 {
					t.Fatalf("%s: selfcheck found %d incremental/batch mismatches", step, n)
				}
				steps = append(steps, b)
			}
			check("step1-upload", ds.Households)

			versionBefore := s.fleetVersion.Load()
			if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, ds.Households[:10]...)); w.Code != http.StatusOK {
				t.Fatalf("re-upload batch: %d", w.Code)
			}
			if skipped := s.reg.CounterValue(obs.Key("serve_refold", "result", "skipped")); skipped != 10 {
				t.Fatalf("idempotent re-upload skipped %d refolds, want 10", skipped)
			}
			if v := s.fleetVersion.Load(); v != versionBefore {
				t.Fatalf("idempotent re-upload moved the fleet version %d -> %d", versionBefore, v)
			}
			check("step2-idempotent", ds.Households)

			// Step 3: three households upload again with different contents.
			for _, i := range []int{0, 7, 13} {
				if w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, updated[i])); w.Code != http.StatusOK {
					t.Fatalf("update upload: %d", w.Code)
				}
			}
			check("step3-update", updated)

			if baseline == nil {
				baseline = steps
				continue
			}
			for si, b := range steps {
				for name, body := range b {
					if !bytes.Equal(body, baseline[si][name]) {
						t.Fatalf("shards=%d workers=%d step %d: %s differs from baseline config", shards, workers, si+1, name)
					}
				}
			}
		}
	}
}

// TestRepostReplacesNewerRecord: a batch re-posted byte for byte after a
// newer upload of the same households is applied again, not answered from
// a cache. Post A, then B (A's households with other devices), then A's
// exact bytes: the fleet must hold A, served equal to the offline Study
// over A's households, and inspector uploads never touch the result cache.
func TestRepostReplacesNewerRecord(t *testing.T) {
	const households = 12
	a := inspector.Generate(71, households).Households
	alt := inspector.Generate(72, households).Households
	b := make([]*inspector.Household, households)
	for i := range b {
		b[i] = &inspector.Household{ID: a[i].ID, Devices: alt[i].Devices}
	}
	s := newTestServer(t, Config{Workers: 2, Shards: 4})
	bodyA := wireBody(t, a...)
	for i, body := range [][]byte{bodyA, wireBody(t, b...), bodyA} {
		if w := do(s, "POST", "/v1/ingest/inspector", body); w.Code != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i+1, w.Code, w.Body.String())
		}
	}
	for _, name := range []string{"table2", "mitigations"} {
		assertServedEqualsOffline(t, fetchArtifact(t, s, name), a, name, "after re-post")
	}
	if n := s.SelfCheck(); n != 0 {
		t.Fatalf("selfcheck found %d mismatches", n)
	}
	if n := s.reg.Total("serve_cache"); n != 0 {
		t.Fatalf("inspector uploads made %d result-cache lookups, want 0", n)
	}
}

// TestArtifactReadsDuringIngest hammers artifact reads while writers keep
// re-uploading changing household contents — the -race proof that a read,
// which adds each shard's live aggregate into its own partial under that
// shard's lock, never races the fold that retracts and adds households in
// the same aggregate, and that the live fold keeps aggregates exact under
// full contention. The final served bytes must equal the offline Study over
// the deterministic final contents.
func TestArtifactReadsDuringIngest(t *testing.T) {
	const writers, perWriter, rounds = 4, 6, 5
	base := inspector.Generate(61, writers*perWriter)
	// Every round re-uploads each household with distinct device contents
	// (identical bodies would fold nothing); the IDs stay fixed so each
	// round retracts the previous one.
	variants := make([][]*inspector.Household, rounds)
	variants[0] = base.Households
	for r := 1; r < rounds; r++ {
		alt := inspector.Generate(int64(61+r), writers*perWriter)
		variants[r] = make([]*inspector.Household, writers*perWriter)
		for i := range variants[r] {
			variants[r][i] = &inspector.Household{ID: base.Households[i].ID, Devices: alt.Households[i].Devices}
		}
	}
	final := variants[rounds-1]
	s := newTestServer(t, Config{Workers: 4, Shards: 4, QueueCapacity: 64})

	upload := func(h *inspector.Household) bool {
		for {
			w := do(s, "POST", "/v1/ingest/inspector", wireBody(t, h))
			switch w.Code {
			case http.StatusOK:
				return true
			case http.StatusTooManyRequests:
				time.Sleep(time.Millisecond)
			default:
				t.Errorf("upload: unexpected status %d: %s", w.Code, w.Body.String())
				return false
			}
		}
	}

	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Each writer owns a disjoint household range and writes its
			// rounds sequentially, so the final contents are deterministic:
			// whatever the last round uploaded.
			for r := 0; r < rounds; r++ {
				for k := 0; k < perWriter; k++ {
					if !upload(variants[r][wi*perWriter+k]) {
						return
					}
				}
			}
		}(wi)
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for ri := 0; ri < 2; ri++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range []string{"table2", "mitigations"} {
					w := do(s, "GET", "/v1/artifacts/"+name, nil)
					if w.Code != http.StatusOK {
						t.Errorf("mid-ingest read %s: status %d", name, w.Code)
						return
					}
					var rep struct {
						Households int    `json:"households"`
						ID         string `json:"id"`
					}
					if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
						t.Errorf("mid-ingest read %s: unparseable body: %v", name, err)
						return
					}
					if rep.Households < 0 || rep.Households > writers*perWriter {
						t.Errorf("mid-ingest read %s: impossible household count %d", name, rep.Households)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		return
	}

	if n := s.SelfCheck(); n != 0 {
		t.Fatalf("selfcheck found %d incremental/batch mismatches after contention", n)
	}
	for _, name := range []string{"table2", "mitigations"} {
		body := fetchArtifact(t, s, name)
		assertServedEqualsOffline(t, body, final, name, "final")
		if again := fetchArtifact(t, s, name); !bytes.Equal(body, again) {
			t.Fatalf("%s: quiesced re-read served different bytes", name)
		}
	}
}
