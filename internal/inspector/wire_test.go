package inspector_test

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"

	"iotlan/internal/analysis"
	"iotlan/internal/inspector"
	"iotlan/internal/pcap"
)

// TestWireRoundTripAnalysisIdentical: a dataset pushed through the upload
// wire format must analyze byte-identically — Table 2 rendering, §7
// mitigation sweep, and Appendix E identification accuracy all unchanged.
func TestWireRoundTripAnalysisIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		ds := inspector.Generate(seed, 60)

		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, ds.Households); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		dec := inspector.NewWireDecoder(&buf)
		back := &inspector.Dataset{}
		for {
			h, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: decode: %v", seed, err)
			}
			back.Households = append(back.Households, h)
		}
		if back.Devices() != ds.Devices() {
			t.Fatalf("seed %d: %d devices in, %d out", seed, ds.Devices(), back.Devices())
		}

		a := analysis.RenderEntropyTable(analysis.EntropyTable(ds))
		b := analysis.RenderEntropyTable(analysis.EntropyTable(back))
		if a != b {
			t.Fatalf("seed %d: Table 2 changed across the wire:\n--- original\n%s--- round-trip\n%s", seed, a, b)
		}

		ma := analysis.RenderMitigationTable(analysis.MitigationTable(ds))
		mb := analysis.RenderMitigationTable(analysis.MitigationTable(back))
		if ma != mb {
			t.Fatalf("seed %d: mitigation sweep changed across the wire", seed)
		}

		if ia, ib := inspector.Accuracy(ds), inspector.Accuracy(back); ia != ib {
			t.Fatalf("seed %d: identification accuracy changed: %v vs %v", seed, ia, ib)
		}
	}
}

// TestWireEncodingDeterministic: same seed, same bytes — the encoder has no
// map-order or timestamp nondeterminism.
func TestWireEncodingDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := inspector.EncodeWire(&a, inspector.Generate(7, 25).Households); err != nil {
		t.Fatal(err)
	}
	if err := inspector.EncodeWire(&b, inspector.Generate(7, 25).Households); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("wire encoding differs between identical generations")
	}
}

// TestWireDecoderRejectsGarbage: malformed bodies fail cleanly, and a
// household without an id is rejected — by the streaming decoder and by the
// one-record decode alike.
func TestWireDecoderRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		"not json",
		`{"id":"u1","devices":[{"id":"d","oui":"zz:zz:zz"}]}`,
		`{"devices":[]}`,
	} {
		dec := inspector.NewWireDecoder(bytes.NewReader([]byte(body)))
		if _, err := dec.Next(); err == nil || err == io.EOF {
			t.Fatalf("body %q: want decode error, got %v", body, err)
		}
		if _, err := inspector.DecodeWireRecord([]byte(body)); err == nil {
			t.Fatalf("record %q: want decode error", body)
		}
	}
}

// TestSyntheticCaptureStableAcrossWire: the synthetic capture derives only
// from wire-visible fields, so generated and round-tripped households render
// the same frames — and those frames survive the pcap container.
func TestSyntheticCaptureStableAcrossWire(t *testing.T) {
	ds := inspector.Generate(3, 10)
	for _, h := range ds.Households {
		orig := inspector.SyntheticCapture(h)
		back, err := h.Wire().Household()
		if err != nil {
			t.Fatal(err)
		}
		round := inspector.SyntheticCapture(back)
		if len(orig) != len(round) {
			t.Fatalf("household %s: %d frames vs %d after wire round-trip", h.ID, len(orig), len(round))
		}
		for i := range orig {
			if !bytes.Equal(orig[i].Data, round[i].Data) {
				t.Fatalf("household %s: frame %d differs after wire round-trip", h.ID, i)
			}
		}
		var buf bytes.Buffer
		if err := pcap.WriteFile(&buf, orig); err != nil {
			t.Fatal(err)
		}
		got, err := pcap.ReadFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(orig) {
			t.Fatalf("household %s: pcap round-trip lost frames", h.ID)
		}
		for i := range got {
			p := got[i].Decode()
			if p.Err != nil || !p.HasUDP {
				t.Fatalf("household %s: frame %d not a clean UDP frame: %v", h.ID, i, p.Err)
			}
		}
	}
}

// TestContentHash: the hash is stable for a fixed record, survives a wire
// round trip (it digests the wire form, which is what restarts replay), and
// moves when any content changes — the contract behind the serving layer's
// idempotent refold.
func TestContentHash(t *testing.T) {
	ds := inspector.Generate(31, 4)
	h := ds.Households[0]
	if h.ContentHash() != h.ContentHash() {
		t.Fatal("hash not stable across calls")
	}
	var buf bytes.Buffer
	if err := inspector.EncodeWire(&buf, []*inspector.Household{h}); err != nil {
		t.Fatal(err)
	}
	dec := inspector.NewWireDecoder(&buf)
	rt, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rt.ContentHash() != h.ContentHash() {
		t.Fatal("hash changed across a wire round trip")
	}
	if ds.Households[1].ContentHash() == h.ContentHash() {
		t.Fatal("distinct households share a hash")
	}
	clone := &inspector.Household{ID: h.ID, Devices: h.Devices[:len(h.Devices)-1]}
	if clone.ContentHash() == h.ContentHash() {
		t.Fatal("dropping a device did not change the hash")
	}
	renamed := &inspector.Household{ID: h.ID + "x", Devices: h.Devices}
	if renamed.ContentHash() == h.ContentHash() {
		t.Fatal("changing the ID did not change the hash")
	}
}

// TestWireRecordHashInvariant pins the invariant recovery relies on: every
// EncodeWire line is the household's WireRecord, and its sha256 is the
// household's ContentHash — both before and after a decode round trip, so
// hashing the bytes the server wrote equals re-marshalling what it read.
func TestWireRecordHashInvariant(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		ds := inspector.Generate(seed, 200)
		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, ds.Households); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), []byte{'\n'})
		if len(lines) != len(ds.Households) {
			t.Fatalf("seed %d: %d lines for %d households", seed, len(lines), len(ds.Households))
		}
		for i, h := range ds.Households {
			line := lines[i]
			if !bytes.Equal(line, h.WireRecord()) {
				t.Fatalf("seed %d household %s: EncodeWire line is not its WireRecord", seed, h.ID)
			}
			if sha256.Sum256(line) != h.ContentHash() {
				t.Fatalf("seed %d household %s: sha256(line) != ContentHash", seed, h.ID)
			}
			back, err := inspector.DecodeWireRecord(line)
			if err != nil {
				t.Fatalf("seed %d household %s: %v", seed, h.ID, err)
			}
			if !bytes.Equal(back.WireRecord(), line) || back.ContentHash() != sha256.Sum256(line) {
				t.Fatalf("seed %d household %s: record changed across a decode round trip", seed, h.ID)
			}
		}
	}
}

// BenchmarkDecodeWireRecord is the per-record cost recovery pays for each
// household it reads back from a checkpoint or the WAL.
func BenchmarkDecodeWireRecord(b *testing.B) {
	rec := inspector.Generate(1, 1).Households[0].WireRecord()
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := inspector.DecodeWireRecord(rec)
		if err != nil {
			b.Fatal(err)
		}
		decodedSink = h
	}
}

var decodedSink *inspector.Household
