package pcap

// Index wraps a finished capture's records. It decodes nothing and keeps no
// parse: every reader of a capture decodes each record into one
// layers.Packet it owns, once per pass. Index and NewIndex remain only for
// the benchmark harness, whose pcap.index_s (bench/repro.go) and
// pcap.index_us (bench/ingest.go) rows call them; they go when that harness
// next changes.
type Index struct {
	// Records is the slice NewIndex was given, not a copy.
	Records []Record
}

// NewIndex wraps records without copying or decoding them. The worker count
// is ignored.
func NewIndex(records []Record, _ int) *Index {
	return &Index{Records: records}
}

// Len reports the number of indexed records.
func (ix *Index) Len() int { return len(ix.Records) }
