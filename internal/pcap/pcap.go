// Package pcap reads and writes the classic libpcap capture file format and
// provides the capture structures the analysis pipeline consumes:
// timestamped records, an in-memory capture, a writer that streams one file
// per source MAC (as the MonIoTr AP stores one file per device), and the
// Appendix C.1 local-traffic filter.
package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"iotlan/internal/layers"
)

// Record is one captured frame with its capture timestamp.
type Record struct {
	Time time.Time
	Data []byte
}

// Decode parses the record's frame into a new packet. A reader that walks
// many records decodes each into one packet it owns instead
// (layers.Packet.DecodeInto), so its pass allocates nothing per record.
func (r Record) Decode() *layers.Packet {
	return layers.Decode(r.Data)
}

const (
	magicMicros = 0xa1b2c3d4
	linkEN10MB  = 1
)

// defaultSnaplen is the conventional tcpdump snapshot length. WriteFile and
// MACWriter raise the header's snaplen above it when a record is larger, so
// caplen never exceeds the declared snaplen.
const defaultSnaplen = 65535

// WriteFile writes records to w in libpcap format (microsecond timestamps,
// Ethernet link type). Output is buffered internally, so passing a raw
// *os.File costs two syscalls total, not two per record. The global header's
// snaplen is the maximum of 65535 and the largest record, keeping the
// invariant pcap consumers rely on: caplen ≤ snaplen for every record.
func WriteFile(w io.Writer, records []Record) error {
	snaplen := uint32(defaultSnaplen)
	for _, r := range records {
		if l := uint32(len(r.Data)); l > snaplen {
			snaplen = l
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, snaplen); err != nil {
		return err
	}
	for _, r := range records {
		if err := writeRecord(bw, r.Time, r.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// snaplenOffset is where the global header holds its snaplen.
const snaplenOffset = 16

func writeHeader(bw *bufio.Writer, snaplen uint32) error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	binary.LittleEndian.PutUint32(hdr[snaplenOffset:snaplenOffset+4], snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkEN10MB)
	_, err := bw.Write(hdr[:])
	return err
}

// writeRecord writes one record: its 16-byte header, built in bw's spare
// buffer, then the frame.
func writeRecord(bw *bufio.Writer, at time.Time, data []byte) error {
	rec := bw.AvailableBuffer()
	rec = binary.LittleEndian.AppendUint32(rec, uint32(at.Unix()))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(at.Nanosecond()/1000))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	if _, err := bw.Write(rec); err != nil {
		return err
	}
	_, err := bw.Write(data)
	return err
}

// DefaultMaxRecordBytes bounds a single record's captured length: larger
// declared lengths are rejected as implausible before any allocation, so a
// corrupt (or hostile) record header can never force a huge allocation.
const DefaultMaxRecordBytes = 1 << 20

// Reader streams records out of a libpcap stream one at a time, so callers
// — most importantly the iotserve upload path — never hold a whole capture
// body in memory at once. Per-record allocation is bounded: Next allocates
// exactly the record's captured length, and declared lengths above
// DefaultMaxRecordBytes are rejected before allocating.
//
// Reader errors are sticky: after any error (including io.EOF) every later
// Next call returns the same error.
type Reader struct {
	r   io.Reader
	err error
}

// NewReader validates the 24-byte global header (magic, link type) and
// returns a streaming reader positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: short header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	if magic != magicMicros {
		return nil, fmt.Errorf("pcap: unsupported magic %#x", magic)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != linkEN10MB {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &Reader{r: r}, nil
}

// Next returns the next record, or io.EOF cleanly at end of stream. A
// truncated record header or body, or an implausible declared length, is an
// error (never silently dropped — the serving layer turns these into 400s).
func (rd *Reader) Next() (Record, error) {
	if rd.err != nil {
		return Record{}, rd.err
	}
	var rec [16]byte
	if _, err := io.ReadFull(rd.r, rec[:]); err != nil {
		if err == io.EOF {
			rd.err = io.EOF
			return Record{}, io.EOF
		}
		rd.err = fmt.Errorf("pcap: short record header: %w", err)
		return Record{}, rd.err
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	usec := binary.LittleEndian.Uint32(rec[4:8])
	capLen := binary.LittleEndian.Uint32(rec[8:12])
	if capLen > DefaultMaxRecordBytes {
		rd.err = fmt.Errorf("pcap: implausible capture length %d", capLen)
		return Record{}, rd.err
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(rd.r, data); err != nil {
		rd.err = fmt.Errorf("pcap: short record body: %w", err)
		return Record{}, rd.err
	}
	return Record{
		Time: time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data: data,
	}, nil
}

// ReadFile parses a libpcap file produced by WriteFile (or tcpdump with
// microsecond timestamps and Ethernet framing). It is a convenience wrapper
// over Reader that collects every record.
func ReadFile(r io.Reader) ([]Record, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var records []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
}

// Capture accumulates frames at the AP tap in arrival order, for
// whole-network analyses, until Stop.
type Capture struct {
	All     []Record
	stopped bool
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Add records a frame captured at t, unless the capture has stopped.
func (c *Capture) Add(t time.Time, frame []byte) {
	if !c.stopped {
		c.All = append(c.All, Record{Time: t, Data: frame})
	}
}

// Stop ends the capture: All keeps the frames added so far, and Add drops
// every later frame.
func (c *Capture) Stop() { c.stopped = true }

// Len reports the total number of captured frames.
func (c *Capture) Len() int { return len(c.All) }

// CountLocal counts the records passing the Appendix C.1 local-traffic
// filter (layers.Packet.IsLocal): local unicast IP, multicast/broadcast
// destination, or non-IP unicast. It allocates nothing; each reader of a
// capture applies the same filter in its own pass.
func CountLocal(records []Record) int {
	n := 0
	var p layers.Packet
	for _, r := range records {
		p.DecodeInto(r.Data)
		if p.IsLocal() {
			n++
		}
	}
	return n
}
