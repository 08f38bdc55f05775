package iotlan

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// smallStudy builds a study small enough to run the full pipeline several
// times under -race on one core, but large enough to exercise every shard
// path (150 households across 4 workers, multi-record capture, apps).
func smallStudy(seed int64, workers int) *Study {
	return New(seed,
		WithIdleDuration(4*time.Minute),
		WithInteractions(12),
		WithHouseholds(150),
		WithApps(20),
		WithWorkers(workers),
	)
}

// TestEverythingByteIdenticalAcrossWorkerCounts is the engine's contract:
// for a fixed seed, parallelism may change wall time but never a byte of
// output — every artifact's ID, rendition, and metrics, and the Inspector
// corpus itself, must match a sequential run exactly.
func TestEverythingByteIdenticalAcrossWorkerCounts(t *testing.T) {
	// One seed only: each iteration runs the full pipeline twice, and the
	// package must fit go test's default 10m timeout under -race alongside
	// the chaos determinism tests (which re-check the contract at a second
	// seed with fault injection enabled).
	for _, seed := range []int64{1337} {
		seq := smallStudy(seed, 1)
		par := smallStudy(seed, 4)
		seqResults := seq.Everything()
		parResults := par.Everything()
		if len(seqResults) != len(parResults) {
			t.Fatalf("seed %d: result counts differ: %d vs %d", seed, len(seqResults), len(parResults))
		}
		for i := range seqResults {
			a, b := seqResults[i], parResults[i]
			if a.ID != b.ID {
				t.Fatalf("seed %d: result %d ordering differs: %q vs %q", seed, i, a.ID, b.ID)
			}
			if a.Rendered != b.Rendered {
				t.Errorf("seed %d: %s rendition differs between workers=1 and workers=4", seed, a.ID)
			}
			if !reflect.DeepEqual(a.Metrics, b.Metrics) {
				t.Errorf("seed %d: %s metrics differ: %v vs %v", seed, a.ID, a.Metrics, b.Metrics)
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
			t.Errorf("seed %d: Inspector corpus differs between workers=1 and workers=4", seed)
		}
		checkArtifactGolden(t, fmt.Sprintf("everything-%d", seed), seqResults...)
	}
}

func TestRunAllContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The smallest study that still runs every pipeline: this test is about
	// cancellation and resumption semantics, not scale.
	s := New(5,
		WithIdleDuration(time.Minute),
		WithInteractions(2),
		WithHouseholds(20),
		WithApps(2),
		WithWorkers(1),
	)
	err := s.RunAllContext(ctx)
	if err == nil {
		t.Fatal("cancelled context did not stop RunAll")
	}
	if got := err.Error(); got != "iotlan: phase passive: context canceled" {
		t.Fatalf("error should name the phase: %q", got)
	}
	if s.passiveDone {
		t.Fatal("phase ran despite cancelled context")
	}
	// A live context resumes from the start.
	if err := s.RunAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Inspector == nil {
		t.Fatal("RunAllContext did not finish the pipelines")
	}
}

func TestExportContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(5)
	if err := s.ExportContext(ctx, t.TempDir()); err == nil {
		t.Fatal("cancelled context did not stop Export")
	}
}

func TestPassiveIndexDecodesOnce(t *testing.T) {
	s := smallStudy(9, 2)
	s.RunPassive()
	idx := s.PassiveIndex()
	if idx.Len() == 0 {
		t.Fatal("empty index")
	}
	if s.PassiveIndex() != idx {
		t.Fatal("index rebuilt on second call")
	}
	recs := s.PassiveRecords()
	if len(recs) != idx.Len() {
		t.Fatalf("PassiveRecords length %d, index %d", len(recs), idx.Len())
	}
	// Records carry the cached parse: Decode must hand back the index's
	// packet pointer, not a fresh parse.
	if recs[0].Decode() != idx.Packets()[0] {
		t.Fatal("record decode did not hit the index cache")
	}
}
