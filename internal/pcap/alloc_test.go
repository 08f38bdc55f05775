// Alloc-count regression guard for the decode-once index: NewIndex attaches
// each record's parse in place, so it allocates the parsed packets and
// nothing that grows with the capture besides. Race instrumentation changes
// allocation counts, so the file is excluded from -race runs.
//
//go:build !race

package pcap

import "testing"

func TestNewIndexAllocs(t *testing.T) {
	recs := testRecords(t)
	avg := testing.AllocsPerRun(50, func() { NewIndex(recs, 1) })
	// One packet per record, plus the index, its shard list and closure.
	if limit := float64(len(recs) + 4); avg > limit {
		t.Fatalf("NewIndex over %d records = %.1f allocs/op, want ≤ %.0f (one packet per record plus a constant)", len(recs), avg, limit)
	}
}
