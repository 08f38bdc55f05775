package pcap

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestStreamEquivalenceProperty: for random record sets, the streaming
// Reader must yield exactly the records ReadFile returns — same count, same
// timestamps, same bytes. ReadFile is itself a wrapper over Reader, so the
// property is checked against a chunked reader too (records arriving byte by
// byte over a network connection must decode identically).
func TestStreamEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		records := synthRecords(t, rng, 150)
		var buf bytes.Buffer
		if err := WriteFile(&buf, records); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}

		whole, err := ReadFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: ReadFile: %v", seed, err)
		}

		// Stream through a reader that returns at most 7 bytes per Read —
		// the pathological chunking a slow TCP upload produces.
		rd, err := NewReader(iotest7{bytes.NewReader(buf.Bytes())})
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		var streamed []Record
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: Next: %v", seed, err)
			}
			streamed = append(streamed, rec)
		}

		if len(streamed) != len(whole) || len(streamed) != len(records) {
			t.Fatalf("seed %d: %d records in, ReadFile %d, streamed %d",
				seed, len(records), len(whole), len(streamed))
		}
		for i := range whole {
			if !whole[i].Time.Equal(streamed[i].Time) {
				t.Fatalf("seed %d: record %d time %v != %v", seed, i, whole[i].Time, streamed[i].Time)
			}
			if !bytes.Equal(whole[i].Data, streamed[i].Data) {
				t.Fatalf("seed %d: record %d bytes differ between ReadFile and Reader", seed, i)
			}
		}
	}
}

// iotest7 caps each Read at 7 bytes to exercise partial reads.
type iotest7 struct{ r io.Reader }

func (c iotest7) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return c.r.Read(p)
}

// TestStreamTruncationProperty: every strict prefix of a valid capture must
// produce a clean error path — either a short-header error from NewReader, a
// clean EOF exactly at a record boundary, or a short record header/body
// error. No truncation point may panic or fabricate records.
func TestStreamTruncationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := synthRecords(t, rng, 20)
	var buf bytes.Buffer
	if err := WriteFile(&buf, records); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	boundaries := map[int]bool{24: true} // offsets where EOF is legitimate
	off := 24
	for _, r := range records {
		off += 16 + len(r.Data)
		boundaries[off] = true
	}

	for cut := 0; cut < len(full); cut++ {
		rd, err := NewReader(bytes.NewReader(full[:cut]))
		if cut < 24 {
			if err == nil {
				t.Fatalf("cut %d: header accepted with only %d bytes", cut, cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		n := 0
		var last error
		for {
			rec, err := rd.Next()
			if err != nil {
				last = err
				break
			}
			if len(rec.Data) > DefaultMaxRecordBytes {
				t.Fatalf("cut %d: oversized record escaped the bound", cut)
			}
			n++
		}
		if boundaries[cut] {
			if last != io.EOF {
				t.Fatalf("cut %d at record boundary: want io.EOF, got %v", cut, last)
			}
		} else if last == io.EOF {
			t.Fatalf("cut %d mid-record: got clean EOF after %d records", cut, n)
		}
		if n > len(records) {
			t.Fatalf("cut %d: fabricated records (%d > %d)", cut, n, len(records))
		}
	}
}

// TestReaderStickyError: after a malformed record the reader keeps
// returning the same error instead of resynchronizing on garbage.
func TestReaderStickyError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, []Record{}); err != nil {
		t.Fatal(err)
	}
	// Append a record header declaring an implausible length.
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, err1 := rd.Next()
	if err1 == nil || !strings.Contains(err1.Error(), "implausible") {
		t.Fatalf("want implausible-length error, got %v", err1)
	}
	_, err2 := rd.Next()
	if err2 != err1 {
		t.Fatalf("error not sticky: %v then %v", err1, err2)
	}
}

// TestReaderMaxRecordBytes: the per-record bound is DefaultMaxRecordBytes,
// inclusive — a record of exactly that size reads back, and one byte more
// is rejected as implausible before its body is allocated.
func TestReaderMaxRecordBytes(t *testing.T) {
	for _, c := range []struct {
		size int
		ok   bool
	}{{DefaultMaxRecordBytes, true}, {DefaultMaxRecordBytes + 1, false}} {
		var buf bytes.Buffer
		if err := WriteFile(&buf, []Record{{Data: bytes.Repeat([]byte{0xab}, c.size)}}); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := rd.Next()
		switch {
		case c.ok && err != nil:
			t.Fatalf("%d-byte record rejected: %v", c.size, err)
		case c.ok && len(rec.Data) != c.size:
			t.Fatalf("%d-byte record read back as %d bytes", c.size, len(rec.Data))
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "implausible")):
			t.Fatalf("%d-byte record: want implausible-length error, got %v", c.size, err)
		}
	}
}
