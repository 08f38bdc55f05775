package pcap

import (
	"iotlan/internal/engine"
	"iotlan/internal/layers"
)

// Index is the decode-once view of a finished capture: every record's
// layers parsed exactly one time (sharded across workers) and attached to
// the record itself. Readers derive the subsets and counts they need from
// Records, e.g. FilterLocal for the Appendix C.1 local traffic.
//
// The index is immutable after construction and safe for concurrent
// readers; the artifact engine shares one Index across every artifact
// instead of letting each analysis re-decode the capture.
type Index struct {
	// Records is the slice NewIndex was given, each record now carrying
	// its parse; a Record copied out of it keeps the parsed layers.
	Records []Record
}

// NewIndex decodes records in place across workers (values < 1 mean one per
// CPU): each record's parse is attached to its own slot, so no record is
// copied and any worker count yields an identical index. Every record is
// decoded, including one that already carries a parse. Nothing may read
// records while NewIndex runs.
func NewIndex(records []Record, workers int) *Index {
	engine.ForEachShard(len(records), workers, func(_ int, r engine.Range) {
		for i := r.Start; i < r.End; i++ {
			records[i].pkt = layers.Decode(records[i].Data)
		}
	})
	return &Index{Records: records}
}

// Len reports the number of indexed records.
func (ix *Index) Len() int { return len(ix.Records) }
