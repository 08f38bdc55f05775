// Alloc-count regression guard for the index wrapper: NewIndex decodes
// nothing, so it allocates the Index and nothing that grows with the
// capture. Race instrumentation changes allocation counts, so the file is
// excluded from -race runs.
//
//go:build !race

package pcap

import "testing"

func TestNewIndexAllocs(t *testing.T) {
	recs := testRecords(t)
	if avg := testing.AllocsPerRun(50, func() { NewIndex(recs, 1) }); avg > 1 {
		t.Fatalf("NewIndex over %d records = %.1f allocs/op, want ≤ 1 (the Index alone)", len(recs), avg)
	}
}
