package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

func mkFrame(t *testing.T, src, dst netx.MAC, srcIP, dstIP string) []byte {
	t.Helper()
	udp := &layers.UDP{SrcPort: 1900, DstPort: 1900}
	s, d := netip.MustParseAddr(srcIP), netip.MustParseAddr(dstIP)
	udp.SetAddrs(s, d)
	return layers.Serialize(
		&layers.Ethernet{Src: src, Dst: dst, EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoUDP, Src: s, Dst: d},
		udp, layers.RawPayload("NOTIFY * HTTP/1.1\r\n\r\n"))
}

func TestFileRoundTrip(t *testing.T) {
	a := netx.MAC{2, 0, 0, 0, 0, 1}
	b := netx.MAC{2, 0, 0, 0, 0, 2}
	recs := []Record{
		{Time: time.Unix(1668384000, 123456000).UTC(), Data: mkFrame(t, a, b, "192.168.10.1", "192.168.10.2")},
		{Time: time.Unix(1668384001, 0).UTC(), Data: mkFrame(t, b, a, "192.168.10.2", "192.168.10.1")},
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if !got[i].Time.Equal(recs[i].Time) {
			t.Errorf("rec %d time %v, want %v", i, got[i].Time, recs[i].Time)
		}
		if !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Errorf("rec %d data mismatch", i)
		}
	}
}

// A record larger than the conventional 65535 snaplen must raise the global
// header's snaplen to cover it — a fixed 65535 header would declare caplen >
// snaplen, which strict pcap readers reject as corrupt.
func TestWriteFileRaisesSnaplenForJumboRecord(t *testing.T) {
	big := make([]byte, 70000)
	for i := range big {
		big[i] = byte(i)
	}
	recs := []Record{
		{Time: time.Unix(1668384000, 0).UTC(), Data: []byte{1, 2, 3}},
		{Time: time.Unix(1668384001, 0).UTC(), Data: big},
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if snaplen := binary.LittleEndian.Uint32(raw[16:20]); snaplen != 70000 {
		t.Fatalf("header snaplen = %d, want 70000", snaplen)
	}
	// Second record header starts after the 24-byte global header, the first
	// 16-byte record header, and the 3-byte first record.
	off := 24 + 16 + 3
	caplen := binary.LittleEndian.Uint32(raw[off+8 : off+12])
	origlen := binary.LittleEndian.Uint32(raw[off+12 : off+16])
	if caplen != 70000 || origlen != 70000 {
		t.Fatalf("jumbo record caplen=%d origlen=%d, want 70000/70000", caplen, origlen)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[1].Data, big) {
		t.Fatalf("jumbo record did not round-trip (%d records)", len(got))
	}
}

// Small captures keep the conventional tcpdump snaplen.
func TestWriteFileDefaultSnaplen(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, []Record{{Time: time.Unix(1, 0).UTC(), Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if snaplen := binary.LittleEndian.Uint32(buf.Bytes()[16:20]); snaplen != 65535 {
		t.Fatalf("header snaplen = %d, want 65535", snaplen)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	if _, err := ReadFile(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFile(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadFileTruncatedRecord(t *testing.T) {
	a := netx.MAC{2, 0, 0, 0, 0, 1}
	var buf bytes.Buffer
	if err := WriteFile(&buf, []Record{{Time: time.Now(), Data: mkFrame(t, a, a, "192.168.10.1", "192.168.10.2")}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadFile(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestCapturePerMAC(t *testing.T) {
	a := netx.MAC{2, 0, 0, 0, 0, 1}
	b := netx.MAC{2, 0, 0, 0, 0, 2}
	c := NewCapture()
	dir := t.TempDir()
	w, err := NewMACWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1668384000, 0).UTC()
	for i, f := range [][]byte{
		mkFrame(t, a, b, "192.168.10.1", "192.168.10.2"),
		mkFrame(t, b, a, "192.168.10.2", "192.168.10.1"),
		mkFrame(t, a, b, "192.168.10.1", "192.168.10.2"),
	} {
		at := now.Add(time.Duration(i) * time.Second)
		c.Add(at, f)
		w.Add(at, f)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Stop()
	c.Add(now.Add(3*time.Second), mkFrame(t, a, b, "192.168.10.1", "192.168.10.2"))
	if c.Len() != 3 {
		t.Fatalf("Len after Stop = %d, want 3", c.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "020000000001.pcap" || entries[1].Name() != "020000000002.pcap" {
		t.Fatalf("per-MAC files = %v", entries)
	}
	read := func(name string) []Record {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		recs, err := ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	ra, rb := read("020000000001.pcap"), read("020000000002.pcap")
	if len(ra) != 2 || len(rb) != 1 {
		t.Fatalf("per-MAC split wrong: a=%d b=%d", len(ra), len(rb))
	}
	if !ra[0].Time.Equal(now) || !ra[1].Time.Equal(now.Add(2*time.Second)) {
		t.Fatalf("a's records out of arrival order: %v, %v", ra[0].Time, ra[1].Time)
	}
}

func TestFilterLocal(t *testing.T) {
	a := netx.MAC{2, 0, 0, 0, 0, 1}
	b := netx.MAC{2, 0, 0, 0, 0, 2}
	now := time.Unix(1668384000, 0).UTC()
	recs := []Record{
		{Time: now, Data: mkFrame(t, a, b, "192.168.10.1", "192.168.10.2")},                 // local
		{Time: now, Data: mkFrame(t, a, b, "192.168.10.1", "52.94.0.1")},                    // cloud
		{Time: now, Data: mkFrame(t, a, netx.Broadcast, "192.168.10.1", "255.255.255.255")}, // broadcast
	}
	if got := CountLocal(recs); got != 2 {
		t.Fatalf("CountLocal = %d, want 2", got)
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	recs := make([]Record, 1000)
	for i := range recs {
		data := make([]byte, 120)
		for j := range data {
			data[j] = byte(i + j)
		}
		recs[i] = Record{Time: time.Unix(int64(i), 0).UTC(), Data: data}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFile(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}
