// Package store is the durability layer behind internal/serve: an
// append-only write-ahead log of ingested records plus atomic per-shard
// checkpoint snapshots, both living in one data directory.
//
// The WAL holds length-prefixed, CRC32C-checksummed records — for iotserve,
// one record per ingested household in the inspector wire format — split
// into numbered segments. A checkpoint first rotates the log to a fresh
// segment N, then snapshots every shard's state; the snapshot therefore
// covers everything in segments < N, so those segments become deletable
// (CompactBefore) and boot-from-checkpoint replays only segments >= N.
// Records racing into segment N during the snapshot may appear in both the
// snapshot and the replay; the serving layer's ingest is idempotent
// (households are replaced whole), so double-application converges — the
// property that makes checkpointing safe without stopping ingestion.
//
// Durability levels (SyncMode): every Append hands the record to the kernel
// (a write(2)) before returning, so an acknowledged record survives process
// death — SIGKILL included — even in SyncNone mode. SyncGroup (the default)
// additionally fsyncs before Append returns, coalescing concurrent appends
// into one fsync (group commit), surviving machine crashes; SyncAlways
// fsyncs per record.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Framing: a record is [uint32 LE payload length][uint32 LE CRC32C][payload].
const (
	recordHeaderBytes = 8
	// MaxRecordBytes bounds one record's payload. A corrupted length field
	// otherwise turns into an arbitrary-size allocation during replay.
	MaxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. Truncated means the byte stream ended inside a record —
// the normal shape of a crash mid-append; Corrupt means the bytes are there
// but wrong (checksum mismatch, implausible length). Replay treats both as
// "stop here, keep the intact prefix".
var (
	ErrRecordTruncated = errors.New("store: record truncated")
	ErrRecordCorrupt   = errors.New("store: record corrupt")
	ErrClosed          = errors.New("store: log closed")
)

// EncodeRecord appends one framed record to buf and returns the extended
// slice.
func EncodeRecord(buf, payload []byte) []byte {
	var hdr [recordHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// RecordReader decodes framed records from a byte stream.
type RecordReader struct {
	r io.Reader
}

// NewRecordReader wraps r for record-by-record decoding.
func NewRecordReader(r io.Reader) *RecordReader { return &RecordReader{r: r} }

// Next returns the next record's payload in a fresh slice. io.EOF marks a
// clean end exactly at a record boundary; ErrRecordTruncated a stream
// ending mid-record; ErrRecordCorrupt a failed checksum or implausible
// length.
func (rr *RecordReader) Next() ([]byte, error) {
	var hdr [recordHeaderBytes]byte
	n, err := io.ReadFull(rr.r, hdr[:])
	if n == 0 && err == io.EOF {
		return nil, io.EOF
	}
	if err != nil { // partial header: the tail of a torn append
		return nil, ErrRecordTruncated
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecordBytes {
		return nil, fmt.Errorf("%w: length %d exceeds %d", ErrRecordCorrupt, length, MaxRecordBytes)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		return nil, ErrRecordTruncated
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrRecordCorrupt)
	}
	return payload, nil
}
