package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// synthRecords builds n pseudo-random records: some well-formed Ethernet/IP
// frames, some raw garbage — the pcap container must round-trip both, since
// the chaos layer writes malformed frames into real captures.
func synthRecords(t *testing.T, rng *rand.Rand, n int) []Record {
	t.Helper()
	base := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	records := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * 137 * time.Microsecond)
		var data []byte
		switch i % 3 {
		case 0: // well-formed IPv4/UDP frame
			payload := make([]byte, 1+rng.Intn(200))
			rng.Read(payload)
			f := layers.Serialize(
				&layers.Ethernet{
					Src:       netx.MAC{2, 0, 0, 0, 0, byte(i)},
					Dst:       netx.MAC{2, 0, 0, 0, 1, byte(i)},
					EtherType: layers.EtherTypeIPv4,
				},
				layers.RawPayload(payload))
			data = f
		case 1: // minimal frame
			data = make([]byte, 14)
			rng.Read(data)
		default: // raw garbage, arbitrary length
			data = make([]byte, 1+rng.Intn(64))
			rng.Read(data)
		}
		records = append(records, Record{Time: at, Data: data})
	}
	return records
}

// TestRoundTripProperty writes N synthetic records, reads them back, and
// asserts byte-identical payloads, microsecond-exact timestamps, and stable
// decode results — directly and through the decode-once Index.
func TestRoundTripProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		rng := rand.New(rand.NewSource(seed))
		records := synthRecords(t, rng, 200)

		var buf bytes.Buffer
		if err := WriteFile(&buf, records); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if len(got) != len(records) {
			t.Fatalf("seed %d: %d records in, %d out", seed, len(records), len(got))
		}
		for i := range records {
			if !got[i].Time.Equal(records[i].Time) {
				t.Fatalf("seed %d: record %d timestamp %v != %v", seed, i, got[i].Time, records[i].Time)
			}
			if !bytes.Equal(got[i].Data, records[i].Data) {
				t.Fatalf("seed %d: record %d payload differs after round-trip", seed, i)
			}
		}

		// Decode results must be stable across the round-trip: same layer
		// presence and same error-ness record by record, through the Index.
		orig := NewIndex(records, 2)
		back := NewIndex(got, 2)
		for i := range records {
			a, b := orig.Records[i].Decode(), back.Records[i].Decode()
			if (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("seed %d: record %d decode error changed: %v vs %v", seed, i, a.Err, b.Err)
			}
			if a.HasARP != b.HasARP || a.HasIP4 != b.HasIP4 || a.HasIP6 != b.HasIP6 ||
				a.HasUDP != b.HasUDP || a.HasTCP != b.HasTCP {
				t.Fatalf("seed %d: record %d layer set changed after round-trip", seed, i)
			}
		}
	}
}

// TestRoundTripSecondWriteIsIdentical re-serializes read-back records and
// checks the bytes match the first file exactly — the container adds or
// loses nothing.
func TestRoundTripSecondWriteIsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	records := synthRecords(t, rng, 100)
	var first bytes.Buffer
	if err := WriteFile(&first, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteFile(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write→read→write changed the file bytes")
	}
}

// TestMACWriterMatchesWriteFile streams synthetic records, re-sourced from a
// handful of MACs and including one record over 65,535 B, through a
// MACWriter. Each MAC's file must equal WriteFile over that MAC's records in
// arrival order, byte for byte, snaplen included; records too short for an
// Ethernet header land in no file.
func TestMACWriterMatchesWriteFile(t *testing.T) {
	macs := []netx.MAC{{2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}, {0x0a, 0xb0, 0, 0, 0, 3}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	for _, seed := range []int64{1, 2, 3, 99} {
		rng := rand.New(rand.NewSource(seed))
		records := synthRecords(t, rng, 200)
		jumbo := make([]byte, 70000)
		rng.Read(jumbo)
		at := 1 + rng.Intn(len(records)-1)
		records = append(records[:at], append([]Record{{Time: records[at-1].Time, Data: jumbo}}, records[at:]...)...)

		byMAC := make(map[netx.MAC][]Record)
		for _, r := range records {
			if len(r.Data) < 14 {
				continue
			}
			mac := macs[rng.Intn(len(macs))]
			copy(r.Data[6:12], mac[:])
			byMAC[mac] = append(byMAC[mac], r)
		}

		dir := t.TempDir()
		w, err := NewMACWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range records {
			w.Add(r.Time, r.Data)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(byMAC) {
			t.Fatalf("seed %d: %d files for %d source MACs", seed, len(entries), len(byMAC))
		}
		raised := false
		for mac, recs := range byMAC {
			var want bytes.Buffer
			if err := WriteFile(&want, recs); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%02x%02x%02x%02x%02x%02x.pcap", mac[0], mac[1], mac[2], mac[3], mac[4], mac[5])))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("seed %d: %s's streamed file differs from WriteFile over its %d records", seed, mac, len(recs))
			}
			raised = raised || binary.LittleEndian.Uint32(got[16:20]) == 70000
		}
		if !raised {
			t.Fatalf("seed %d: no file declares the jumbo record's snaplen", seed)
		}
	}
}

// TestMACWriterCloseReportsFailedDestination: a MAC whose file cannot be
// created, or whose writes fail, fails the writer, and Close says so.
func TestMACWriterCloseReportsFailedDestination(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(t *testing.T, path string) error
	}{
		// A directory holds the file name, so creating the file fails.
		{"create", func(_ *testing.T, path string) error { return os.Mkdir(path, 0o755) }},
		// The file is the full device, so the buffered records fail to
		// flush.
		{"flush", func(t *testing.T, path string) error {
			if _, err := os.Stat("/dev/full"); err != nil {
				t.Skip("no /dev/full")
			}
			return os.Symlink("/dev/full", path)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.block(t, filepath.Join(dir, "020000000002.pcap")); err != nil {
				t.Fatal(err)
			}
			w, err := NewMACWriter(dir)
			if err != nil {
				t.Fatal(err)
			}
			macs := []netx.MAC{{2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}}
			rng := rand.New(rand.NewSource(5))
			for i, r := range synthRecords(t, rng, 30) {
				if len(r.Data) >= 14 {
					copy(r.Data[6:12], macs[i%2][:])
					w.Add(r.Time, r.Data)
				}
			}
			err = w.Close()
			if err == nil || !strings.Contains(err.Error(), "020000000002.pcap") {
				t.Fatalf("Close = %v, want the failed file's error", err)
			}
		})
	}

	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMACWriter(file); err == nil {
		t.Fatal("NewMACWriter accepted a regular file as its directory")
	}
}
