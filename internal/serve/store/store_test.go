package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
)

// appendAll writes payloads into a fresh log in dir and closes it,
// returning the on-disk bytes of the (single) segment.
func appendAll(t *testing.T, dir string, mode SyncMode, payloads [][]byte) []byte {
	t.Helper()
	l, err := OpenLog(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.Segment()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, SegmentName(seg)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func testPayloads() [][]byte {
	return [][]byte{
		[]byte(`{"id":"user00000"}`),
		[]byte(""), // empty record is legal
		[]byte(`{"id":"user00001","devices":[{"oui":"aa:bb:cc"}]}`),
		bytes.Repeat([]byte("x"), 300),
		[]byte(`tail`),
	}
}

// TestTruncationEveryByte is the satellite-3 core property: truncating a
// recorded WAL at EVERY byte offset replays without panic and recovers
// exactly the prefix of intact records.
func TestTruncationEveryByte(t *testing.T) {
	payloads := testPayloads()
	raw := appendAll(t, t.TempDir(), SyncNone, payloads)

	// Record boundaries: offsets[i] = bytes covering the first i records.
	offsets := []int{0}
	for _, p := range payloads {
		offsets = append(offsets, offsets[len(offsets)-1]+recordHeaderBytes+len(p))
	}
	if offsets[len(offsets)-1] != len(raw) {
		t.Fatalf("segment is %d bytes, framing says %d", len(raw), offsets[len(offsets)-1])
	}

	for cut := 0; cut <= len(raw); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		st, err := ReplayLog(dir, 0, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		// How many whole records fit in the first `cut` bytes?
		intact := 0
		for intact+1 < len(offsets) && offsets[intact+1] <= cut {
			intact++
		}
		if st.Records != intact || len(got) != intact {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, st.Records, intact)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut=%d: record %d mismatch", cut, i)
			}
		}
		atBoundary := offsets[intact] == cut
		if st.Truncated == atBoundary {
			t.Fatalf("cut=%d: Truncated=%v, at-boundary=%v", cut, st.Truncated, atBoundary)
		}
	}
}

// TestCorruptChecksumStopsReplay: a bit-flipped payload stops replay at the
// damaged record; the intact prefix is kept; the error is ErrRecordCorrupt.
func TestCorruptChecksumStopsReplay(t *testing.T) {
	payloads := testPayloads()
	raw := appendAll(t, t.TempDir(), SyncNone, payloads)

	// Flip one byte inside the 3rd record's payload.
	off := 0
	for i := 0; i < 2; i++ {
		off += recordHeaderBytes + len(payloads[i])
	}
	raw[off+recordHeaderBytes] ^= 0xff

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayLog(dir, 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || !st.Truncated || !errors.Is(st.Err, ErrRecordCorrupt) {
		t.Fatalf("got records=%d truncated=%v err=%v; want 2/true/ErrRecordCorrupt",
			st.Records, st.Truncated, st.Err)
	}
	if st.TruncatedSegment != 1 {
		t.Fatalf("TruncatedSegment=%d, want 1", st.TruncatedSegment)
	}
}

// TestAbsurdLengthStopsReplay: a corrupted length field larger than
// MaxRecordBytes must stop replay as corruption, not attempt the allocation.
func TestAbsurdLengthStopsReplay(t *testing.T) {
	frame := EncodeRecord(nil, []byte("ok"))
	bad := append(append([]byte(nil), frame...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayLog(dir, 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || !st.Truncated || !errors.Is(st.Err, ErrRecordCorrupt) {
		t.Fatalf("got records=%d truncated=%v err=%v", st.Records, st.Truncated, st.Err)
	}
}

// TestReplayGoesPastTornSegment: a crash tore segment 1's tail, the
// restarted log wrote segment 2 from its first byte, and replay returns the
// record acknowledged there as well as segment 1's intact prefix, naming
// segment 1 as the damaged one.
func TestReplayGoesPastTornSegment(t *testing.T) {
	dir := t.TempDir()
	raw := EncodeRecord(nil, []byte("before crash"))
	raw = append(raw, EncodeRecord(nil, []byte("torn by the crash"))[:recordHeaderBytes+4]...)
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after restart")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	st, err := ReplayLog(dir, 0, func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"before crash", "after restart"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay = %q, want %q", got, want)
	}
	if st.Segments != 2 || st.Records != 2 || !st.Truncated || st.TruncatedSegment != 1 ||
		!errors.Is(st.Err, ErrRecordTruncated) {
		t.Fatalf("stats = %+v, want 2 segments, 2 records, truncated in segment 1", st)
	}
}

// TestRotateAndReplayFrom: records span segments; replay from a later
// segment sees only its suffix; a reopened log never reuses a segment.
func TestRotateAndReplayFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if l.Segment() != 1 {
		t.Fatalf("first segment = %d, want 1", l.Segment())
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg2, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seg2 != 2 {
		t.Fatalf("rotate -> %d, want 2", seg2)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	var all, suffix []string
	if _, err := ReplayLog(dir, 0, func(p []byte) error { all = append(all, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayLog(dir, seg2, func(p []byte) error { suffix = append(suffix, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a0", "a1", "a2", "b0", "b1"}; fmt.Sprint(all) != fmt.Sprint(want) {
		t.Fatalf("full replay = %v, want %v", all, want)
	}
	if want := []string{"b0", "b1"}; fmt.Sprint(suffix) != fmt.Sprint(want) || st.Segments != 1 {
		t.Fatalf("suffix replay = %v (segments=%d), want %v in 1 segment", suffix, st.Segments, want)
	}

	// Reopen: must start at segment 3, even though 1 and 2 exist.
	l2, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Segment() != 3 {
		t.Fatalf("reopened segment = %d, want 3", l2.Segment())
	}
	l2.Close()
}

// TestGroupCommitConcurrentAppend: concurrent appenders under group commit
// all become durable and replayable.
func TestGroupCommitConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- l.Append([]byte(fmt.Sprintf("rec-%03d", i)))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	st, err := ReplayLog(dir, 0, func(p []byte) error { seen[string(p)] = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n || st.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want %d clean", st.Records, st.Truncated, n)
	}
	for i := 0; i < n; i++ {
		if !seen[fmt.Sprintf("rec-%03d", i)] {
			t.Fatalf("record %d missing after replay", i)
		}
	}
}

// TestRotateDuringGroupAppends: appenders in group mode race repeated
// Rotates with no lock outside the log. Rotate never closes a segment while
// an appender's fsync of it runs, and fsyncs every record written to it
// first, so no Append fails and every acknowledged record replays, each
// appender's in its own order.
func TestRotateDuringGroupAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, rotations, minAppends = 4, 200, 20
	var rotating atomic.Bool
	rotating.Store(true)
	acked := make([]int, appenders)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < minAppends || rotating.Load(); i++ {
				if err := l.Append([]byte(fmt.Sprintf("%d/%d", a, i))); err != nil {
					t.Errorf("appender %d, record %d: %v", a, i, err)
					return
				}
				acked[a]++
			}
		}(a)
	}
	for i := 0; i < rotations; i++ {
		if _, err := l.Rotate(); err != nil {
			t.Errorf("rotate %d: %v", i, err)
			break
		}
	}
	rotating.Store(false)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	next := make([]int, appenders)
	st, err := ReplayLog(dir, 0, func(p []byte) error {
		var a, i int
		if _, err := fmt.Sscanf(string(p), "%d/%d", &a, &i); err != nil || a < 0 || a >= appenders || i != next[a] {
			return fmt.Errorf("record %q out of order (next %v)", p, next)
		}
		next[a]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated || st.Segments != rotations+1 || fmt.Sprint(next) != fmt.Sprint(acked) {
		t.Fatalf("replayed %v records per appender in %d segments (truncated=%v), want %v in %d",
			next, st.Segments, st.Truncated, acked, rotations+1)
	}
}

func TestParseSyncMode(t *testing.T) {
	for s, want := range map[string]SyncMode{"": SyncGroup, "group": SyncGroup, "none": SyncNone} {
		got, err := ParseSyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"always", "bogus"} {
		if _, err := ParseSyncMode(s); err == nil {
			t.Fatalf("ParseSyncMode(%q) accepted", s)
		}
	}
}

// TestCheckpointRoundTrip: write → latest → compact; a damaged newest
// checkpoint falls back to the previous one; .tmp staging dirs are ignored.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Seed WAL segments 1..3 so compaction has something to delete.
	l, err := OpenLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("one"))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("two"))
	seg3, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("three"))
	l.Close()

	blobsA := [][]byte{[]byte("shard0-a"), []byte("shard1-a")}
	blobsB := [][]byte{[]byte("shard0-b"), []byte("shard1-b")}
	if err := WriteCheckpoint(dir, 2, blobsA, 10); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, seg3, blobsB, 20); err != nil {
		t.Fatal(err)
	}

	mf, shards, ok, err := LatestCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if mf.Seq != seg3 || mf.Shards != 2 || mf.Records != 20 {
		t.Fatalf("manifest = %+v", mf)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], blobsB[i]) {
			t.Fatalf("shard %d blob mismatch", i)
		}
	}

	// Damage the newest checkpoint's shard file: fall back to seq 2.
	if err := os.WriteFile(filepath.Join(dir, CheckpointName(seg3), "shard-0001.snap"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, shards, ok, err = LatestCheckpoint(dir)
	if err != nil || !ok || mf.Seq != 2 {
		t.Fatalf("fallback: ok=%v err=%v seq=%d", ok, err, mf.Seq)
	}
	if !bytes.Equal(shards[0], blobsA[0]) {
		t.Fatal("fallback served wrong blob")
	}

	// A stray staging dir must not be listed as a checkpoint.
	if err := os.MkdirAll(filepath.Join(dir, "ckpt-00000099.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	seqs, err := Checkpoints(dir)
	if err != nil || fmt.Sprint(seqs) != fmt.Sprint([]int{2, seg3}) {
		t.Fatalf("checkpoints = %v, %v", seqs, err)
	}

	// Compact below seq 2: segment 1 and nothing else goes; replay from 2
	// still works.
	segs, ckpts, err := CompactBefore(dir, 2)
	if err != nil || segs != 1 || ckpts != 0 {
		t.Fatalf("compact: segs=%d ckpts=%d err=%v", segs, ckpts, err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentName(1))); !os.IsNotExist(err) {
		t.Fatal("segment 1 survived compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000099.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale staging dir survived compaction")
	}
	var got []string
	if _, err := ReplayLog(dir, 2, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"two", "three"}) {
		t.Fatalf("post-compact replay = %v", got)
	}

	// Compact below seq 3: checkpoint 2 goes too.
	if _, ckpts, err = CompactBefore(dir, seg3); err != nil || ckpts != 1 {
		t.Fatalf("compact2: ckpts=%d err=%v", ckpts, err)
	}
}

// TestLatestCheckpointEmpty: a data dir without checkpoints reports ok=false.
func TestLatestCheckpointEmpty(t *testing.T) {
	if _, _, ok, err := LatestCheckpoint(t.TempDir()); ok || err != nil {
		t.Fatalf("ok=%v err=%v, want false/nil", ok, err)
	}
	if _, _, ok, err := LatestCheckpoint(filepath.Join(t.TempDir(), "missing")); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

// BenchmarkAppend times one WAL append of an 8 KB payload in each sync
// mode: group waits for an fsync covering the record, none stops at
// write(2). group_parallel runs 8 appenders at once (at least 8 when
// GOMAXPROCS does not divide 8), so one fsync covers several records: it
// guards group commit run by the appenders themselves.
func BenchmarkAppend(b *testing.B) {
	payload := bytes.Repeat([]byte{'x'}, 8<<10)
	for _, mode := range []struct {
		name      string
		mode      SyncMode
		appenders int
	}{{"group", SyncGroup, 1}, {"group_parallel", SyncGroup, 8}, {"none", SyncNone, 1}} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := OpenLog(b.TempDir(), mode.mode)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			if mode.appenders == 1 {
				for i := 0; i < b.N; i++ {
					if err := l.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			procs := runtime.GOMAXPROCS(0)
			b.SetParallelism((mode.appenders + procs - 1) / procs)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := l.Append(payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestDirSyncErr: a directory fsync that fails with EINVAL (a filesystem
// that cannot fsync a directory) is no error, wrapped or not; any other
// failure, EIO above all, is returned as it came, so a checkpoint whose
// rename may not be durable fails before the WAL it replaces is compacted.
func TestDirSyncErr(t *testing.T) {
	syncErr := func(errno syscall.Errno) error { return &os.PathError{Op: "sync", Path: "/data", Err: errno} }
	for _, err := range []error{nil, syncErr(syscall.EINVAL), fmt.Errorf("checkpoint: %w", syncErr(syscall.EINVAL))} {
		if got := dirSyncErr(err); got != nil {
			t.Errorf("dirSyncErr(%v) = %v, want nil", err, got)
		}
	}
	for _, err := range []error{syncErr(syscall.EIO), fmt.Errorf("checkpoint: %w", syncErr(syscall.EIO)), syncErr(syscall.ENOSPC)} {
		if got := dirSyncErr(err); got != err {
			t.Errorf("dirSyncErr(%v) = %v, want it unchanged", err, got)
		}
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Errorf("syncDir of a directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "gone")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("syncDir of a missing directory = %v, want ErrNotExist", err)
	}
}

// TestRotateFailureClosesLog: when Rotate cannot create the next segment
// (here it already exists; a failed directory fsync after the creation
// takes the same path), the log closes and every later Append and Rotate
// fails with ErrClosed, so ingestion stops until the log is reopened. Close
// then returns nil, and a second Close does nothing, in both sync modes.
func TestRotateFailureClosesLog(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode SyncMode
	}{{"none", SyncNone}, {"group", SyncGroup}} {
		dir := t.TempDir()
		l, err := OpenLog(dir, mode.mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, SegmentName(l.Segment()+1)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Rotate(); !errors.Is(err, fs.ErrExist) {
			t.Fatalf("%s: rotate onto an existing segment: %v, want ErrExist", mode.name, err)
		}
		if err := l.Append([]byte("b")); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: append after a failed rotate: %v, want ErrClosed", mode.name, err)
		}
		if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: rotate after a failed rotate: %v, want ErrClosed", mode.name, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: close after a failed rotate: %v", mode.name, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: second close: %v", mode.name, err)
		}
	}
}

// TestFailureStopsLog: a failed write stops the log, as a failed fsync or
// close of the old segment in Rotate does. The failing call returns an
// error matching both ErrClosed and its cause; every later Append and
// Rotate fails with ErrClosed and writes nothing, even through a handle
// that would take the bytes; Close then returns nil, in both sync modes.
func TestFailureStopsLog(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode SyncMode
	}{{"none", SyncNone}, {"group", SyncGroup}} {
		for _, fail := range []struct {
			name   string
			closed bool // hand the log a closed handle, not a read-only one
			op     func(l *Log) error
			cause  error
		}{
			{"write", false, func(l *Log) error { return l.Append([]byte("refused")) }, syscall.EBADF},
			{"rotate", true, func(l *Log) error { _, err := l.Rotate(); return err }, os.ErrClosed},
		} {
			name := mode.name + "/" + fail.name
			dir := t.TempDir()
			l, err := OpenLog(dir, mode.mode)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("a")); err != nil {
				t.Fatal(err)
			}
			bad, err := os.Open(filepath.Join(dir, SegmentName(l.Segment()))) // read-only
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { bad.Close() })
			if fail.closed {
				bad.Close()
			}
			w := l.f
			l.f = bad
			if err := fail.op(l); !errors.Is(err, ErrClosed) || !errors.Is(err, fail.cause) {
				t.Fatalf("%s: the failing call returned %v, want ErrClosed wrapping its cause", name, err)
			}
			l.f = w
			if err := l.Append([]byte("b")); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s: append after the failure: %v, want ErrClosed", name, err)
			}
			if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s: rotate after the failure: %v, want ErrClosed", name, err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("%s: close after the failure: %v", name, err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("%s: second close: %v", name, err)
			}
			var got []string
			if _, err := ReplayLog(dir, 0, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[a]" {
				t.Fatalf("%s: the log holds %q after the failure, want only [a]", name, got)
			}
		}
	}
}
