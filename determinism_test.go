package iotlan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"iotlan/internal/netx"
	"iotlan/internal/pcap"
)

// smallStudy builds a study small enough to run the full pipeline several
// times under -race on one core, but large enough to exercise every shard
// path (150 households across 4 workers, multi-record capture, apps).
func smallStudy(seed int64, workers int, opts ...Option) *Study {
	return New(seed, append([]Option{
		WithIdleDuration(4 * time.Minute),
		WithInteractions(12),
		WithHouseholds(150),
		WithApps(20),
		WithWorkers(workers),
	}, opts...)...)
}

// TestEverythingByteIdenticalAcrossWorkerCounts is the engine's contract:
// for a fixed seed, parallelism may change wall time but never a byte of
// output — every artifact's ID, rendition, and metrics, and the Inspector
// corpus itself, must match a sequential run exactly. The sequential run
// also streams its per-MAC pcaps, whose bytes the golden pins, while its
// capture keeps the passive window alone.
func TestEverythingByteIdenticalAcrossWorkerCounts(t *testing.T) {
	// One seed only: each iteration runs the full pipeline twice, and the
	// package must fit go test's default 10m timeout under -race alongside
	// the chaos determinism tests (which re-check the contract at a second
	// seed with fault injection enabled).
	for _, seed := range []int64{1337} {
		pcapDir := t.TempDir()
		pcaps, err := pcap.NewMACWriter(pcapDir)
		if err != nil {
			t.Fatal(err)
		}
		seq := smallStudy(seed, 1, WithPcapWriter(pcaps))
		par := smallStudy(seed, 4)
		seq.RunPassive()
		passiveFrames := seq.Lab.Capture.Len()
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
		if n := seq.Lab.Capture.Len(); n != passiveFrames {
			t.Errorf("seed %d: capture holds %d frames after Everything, %d after RunPassive", seed, n, passiveFrames)
		}
		if err := pcaps.Close(); err != nil {
			t.Fatal(err)
		}
		digests := fileDigests(t, pcapDir)
		checkGolden(t, fmt.Sprintf("pcaps-%d", seed), digests)
		// The scanner joins after the passive window: its frames reach its
		// file but not the capture.
		scanner := netx.MAC{0x02, 0x50, 0x00, 0x00, 0x02, 0x50}
		if _, ok := digests["025000000250.pcap"]; !ok {
			t.Errorf("seed %d: no pcap file for the scanner %s", seed, scanner)
		}
		for _, r := range seq.Lab.Capture.All {
			if bytes.Equal(r.Data[6:12], scanner[:]) {
				t.Fatalf("seed %d: capture holds a frame from the scanner", seed)
			}
		}
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

// TestPassiveRecordsShareCapture: every passive artifact reads the
// capture's own records. PassiveRecords, and the index wrapper over it,
// return Lab.Capture.All itself, so nothing is copied.
func TestPassiveRecordsShareCapture(t *testing.T) {
	s := smallStudy(9, 2)
	recs := s.PassiveRecords()
	all := s.Lab.Capture.All
	if len(recs) == 0 || len(recs) != len(all) {
		t.Fatalf("PassiveRecords length %d, capture %d", len(recs), len(all))
	}
	if &recs[0] != &all[0] || cap(recs) != cap(all) {
		t.Fatal("PassiveRecords copied the capture")
	}
	if ix := s.PassiveIndex(); &ix.Records[0] != &all[0] || len(ix.Records) != len(all) {
		t.Fatal("PassiveIndex copied the capture")
	}
}
