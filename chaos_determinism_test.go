package iotlan

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"iotlan/internal/chaos"
)

// chaosStudy is a scaled-down smallStudy under a fault-injection plan:
// still multi-worker and multi-shard, but sized so the extra studies fit in
// the root package's -race time budget alongside determinism_test.go.
func chaosStudy(seed int64, workers int, plan chaos.Plan) *Study {
	return New(seed,
		WithIdleDuration(3*time.Minute),
		WithInteractions(8),
		WithHouseholds(60),
		WithApps(8),
		WithWorkers(workers),
		WithChaos(plan),
	)
}

// degradedPlan exercises every impairment class in one short window: loss,
// duplication, reordering, jitter, corruption, a partition, and churn.
var degradedPlan = chaos.Plan{
	Name: "test-degraded",
	Loss: 0.03, Duplicate: 0.01, Reorder: 0.02,
	MaxExtraLatency: 2 * time.Millisecond,
	Corrupt:         0.01,
	Partitions:      []chaos.Partition{{Start: 90 * time.Second, Duration: time.Minute, Isolate: 0.3}},
	Churn:           &chaos.Churn{Start: time.Minute, Interval: 45 * time.Second, Downtime: 20 * time.Second},
}

// chaosPairSeed is the seed of the one chaos study pair the worker-count
// tests share.
const chaosPairSeed = 42

// The degradedPlan study pair at workers=1 and workers=4, built and run
// through the passive and Inspector phases once for every test that
// compares them.
var (
	chaosPairOnce      sync.Once
	chaosSeq, chaosPar *Study
)

func chaosPair() (seq, par *Study) {
	chaosPairOnce.Do(func() {
		chaosSeq = chaosStudy(chaosPairSeed, 1, degradedPlan)
		chaosPar = chaosStudy(chaosPairSeed, 4, degradedPlan)
		for _, s := range []*Study{chaosSeq, chaosPar} {
			s.RunPassive()
			s.RunInspector()
		}
	})
	return chaosSeq, chaosPar
}

// TestChaosByteIdenticalAcrossWorkerCounts extends the PR 2 determinism
// contract to fault injection: for a fixed (seed, chaos.Plan), worker count
// may change wall time but never a byte of output. It compares the phases
// where chaos and the parallel analysis engine actually interact — the
// passive simulation (where every fault fires), the worker-sharded
// Inspector corpus, and the passive artifact fan-out, plus the metrics
// snapshot (which now includes the chaos_faults series). Full Everything()
// equality is pinned by TestEverythingByteIdenticalAcrossWorkerCounts; the
// scan/vuln/app phases it adds run on the single-threaded scheduler and
// repeating them here per worker count blows the -race time budget.
func TestChaosByteIdenticalAcrossWorkerCounts(t *testing.T) {
	seq, par := chaosPair()
	var results []Result
	for _, name := range []string{"figure1", "figure2", "table1", "table4", "table5", "intervals", "periodicity", "chaos"} {
		a, err := seq.RunArtifact(name)
		if err != nil {
			t.Fatalf("workers=1 %s: %v", name, err)
		}
		results = append(results, a)
		b, err := par.RunArtifact(name)
		if err != nil {
			t.Fatalf("workers=4 %s: %v", name, err)
		}
		if a.Rendered != b.Rendered {
			t.Errorf("%s rendition differs under chaos between workers=1 and workers=4", name)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s metrics differ under chaos: %v vs %v", name, a.Metrics, b.Metrics)
		}
	}
	seqDS, err := json.Marshal(seq.Inspector)
	if err != nil {
		t.Fatal(err)
	}
	parDS, err := json.Marshal(par.Inspector)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqDS) != string(parDS) {
		t.Errorf("Inspector corpus differs under chaos")
	}
	checkArtifactGolden(t, fmt.Sprintf("chaos-%d", chaosPairSeed), results...)
	seqSnap := string(seq.Lab.Telemetry().Registry.Snapshot())
	parSnap := string(par.Lab.Telemetry().Registry.Snapshot())
	if seqSnap != parSnap {
		t.Errorf("metrics snapshot differs under chaos")
	}
	// The plan must actually have injected faults, or this test proves
	// nothing.
	if seq.Lab.Chaos.Faults() == 0 {
		t.Fatal("degraded plan injected no faults")
	}
}

// TestChaosCaptureByteIdentical pins the rawest export: the same (seed,
// plan) must produce the identical frame-by-frame capture regardless of
// worker count (workers only parallelise analysis, never simulation).
func TestChaosCaptureByteIdentical(t *testing.T) {
	seq, par := chaosPair()
	ra, rb := seq.Lab.Capture.All, par.Lab.Capture.All
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("capture lengths under chaos: %d vs %d records", len(ra), len(rb))
	}
	for i := range ra {
		if !ra[i].Time.Equal(rb[i].Time) || string(ra[i].Data) != string(rb[i].Data) {
			t.Fatalf("capture record %d differs under chaos between workers=1 and workers=4", i)
		}
	}
}

// TestChaosProfilesDegradeGracefully runs the passive pipeline and every
// passive artifact under each named impairment profile: no panics, no
// NaN/Inf metrics, non-empty renditions. The analysis layer must tolerate a
// degraded network, not merely a perfect one.
func TestChaosProfilesDegradeGracefully(t *testing.T) {
	for _, name := range chaos.ProfileNames() {
		plan, err := chaos.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(plan.Name, func(t *testing.T) {
			s := New(11,
				WithIdleDuration(3*time.Minute),
				WithInteractions(8),
				WithHouseholds(25),
				WithApps(4),
				WithWorkers(2),
				WithChaos(plan),
			)
			for _, name := range []string{"figure1", "figure2", "table1", "table4", "table5", "intervals", "periodicity", "chaos"} {
				r, err := s.RunArtifact(name)
				if err != nil {
					t.Fatalf("%s under %s: %v", name, plan.Name, err)
				}
				if r.Rendered == "" {
					t.Errorf("%s under %s: empty rendition", name, plan.Name)
				}
				for k, v := range r.Metrics {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s under %s: metric %s = %v", name, plan.Name, k, v)
					}
				}
			}
		})
	}
}
