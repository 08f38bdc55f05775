package serve

import (
	"bytes"
	"net/http"
	"os"
	"strings"
	"testing"

	"iotlan/internal/engine"
	"iotlan/internal/inspector"
	"iotlan/internal/obs"
	"iotlan/internal/serve/store"
)

// checkpointBlobs renders households as a server's checkpoint does: one
// EncodeWire blob per fleet shard, households placed by ID hash.
func checkpointBlobs(t testing.TB, hhs []*inspector.Household, shards int) [][]byte {
	t.Helper()
	per := make([][]*inspector.Household, shards)
	for _, h := range hhs {
		i := engine.ShardOf(h.ID, shards)
		per[i] = append(per[i], h)
	}
	blobs := make([][]byte, shards)
	for i, part := range per {
		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, part); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
	}
	return blobs
}

// wireRecords renders households as WAL payloads.
func wireRecords(hhs []*inspector.Household) [][]byte {
	recs := make([][]byte, len(hhs))
	for i, h := range hhs {
		recs[i] = h.WireRecord()
	}
	return recs
}

// writeImage writes a durable image as a server leaves it between
// checkpoints: a checkpoint labeled segment 1 holding blobs, then segment 1
// holding the tail records in order.
func writeImage(t testing.TB, dir string, blobs [][]byte, records int, tail [][]byte) {
	t.Helper()
	if err := store.WriteCheckpoint(dir, 1, blobs, records); err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenLog(dir, store.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tail {
		if err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// servedState is everything a client can read about the inspector fleet.
func servedState(t *testing.T, s *Server, ids []string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{
		"fleet":       do(s, "GET", "/v1/fleet", nil).Body.Bytes(),
		"table2":      fetchArtifact(t, s, "table2"),
		"mitigations": fetchArtifact(t, s, "mitigations"),
	}
	for _, id := range ids {
		w := do(s, "GET", "/v1/households/"+id+"/report", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("report %s: status %d", id, w.Code)
		}
		out[id] = w.Body.Bytes()
	}
	return out
}

// TestRecoveryWorkerInvariance: recovery prepares records in parallel and
// applies them in log order, so an image whose checkpoint and WAL tail
// overlap — a household whose tail contents differ from its checkpointed
// ones, the checkpoint/WAL race's unchanged duplicate, a household twice in
// the tail within one fold chunk and again across chunks — recovers at any
// worker count to exactly what a server that never restarted holds after
// the same records in the same order.
func TestRecoveryWorkerInvariance(t *testing.T) {
	const checkpointed, fresh = 300, 200
	ds := inspector.Generate(81, checkpointed+fresh).Households
	alt := inspector.Generate(82, checkpointed+fresh).Households
	changed := func(i int) *inspector.Household {
		return &inspector.Household{ID: ds[i].ID, Devices: alt[i].Devices}
	}
	tail := append([]*inspector.Household{}, ds[checkpointed:checkpointed+120]...)
	tail = append(tail,
		changed(3),               // checkpoint and tail contents differ
		ds[5],                    // checkpointed and logged unchanged
		changed(checkpointed+10), // second time in the tail, same chunk
		changed(checkpointed+20), // second time, same chunk…
	)
	tail = append(tail, ds[checkpointed+120:]...)
	tail = append(tail,
		ds[checkpointed+20],      // …then changed back in the next one
		changed(checkpointed+90), // second time, next chunk
	)
	if len(tail) <= foldChunk {
		t.Fatalf("tail of %d records fits in one fold chunk of %d", len(tail), foldChunk)
	}

	// What a never-restarted server holds: the same records, in order, as
	// one batch.
	ref := newTestServer(t, Config{Workers: 1, Shards: 4, QueueCapacity: 1})
	if w := do(ref, "POST", "/v1/ingest/inspector", wireBody(t, append(ds[:checkpointed:checkpointed], tail...)...)); w.Code != http.StatusOK {
		t.Fatalf("reference ingest: %d %s", w.Code, w.Body.String())
	}
	final := map[string]*inspector.Household{}
	var ids []string
	for _, h := range append(ds[:checkpointed:checkpointed], tail...) {
		if final[h.ID] == nil {
			ids = append(ids, h.ID)
		}
		final[h.ID] = h
	}
	finalHHs := make([]*inspector.Household, len(ids))
	for i, id := range ids {
		finalHHs[i] = final[id]
	}
	want := servedState(t, ref, ids)
	for _, name := range []string{"table2", "mitigations"} {
		assertServedEqualsOffline(t, want[name], finalHHs, name, "reference")
	}

	dir := t.TempDir()
	writeImage(t, dir, checkpointBlobs(t, ds[:checkpointed], 8), checkpointed, wireRecords(tail))
	for _, workers := range []int{1, 2, 8} {
		s := openTestServer(t, Config{Workers: workers, Shards: 4, DataDir: copyDataDir(t, dir)})
		got := servedState(t, s, ids)
		for key, body := range want {
			if !bytes.Equal(got[key], body) {
				t.Fatalf("workers=%d: recovered %s differs from a never-restarted server:\n%s\nvs\n%s", workers, key, got[key], body)
			}
		}
		if n := s.reg.CounterValue("serve_checkpoint_households_loaded"); n != checkpointed {
			t.Fatalf("workers=%d: loaded %d checkpoint households, want %d", workers, n, checkpointed)
		}
		if n := s.reg.CounterValue("serve_wal_replay_records"); n != uint64(len(tail)) {
			t.Fatalf("workers=%d: replayed %d WAL records, want %d", workers, n, len(tail))
		}
		if n := s.SelfCheck(); n != 0 {
			t.Fatalf("workers=%d: selfcheck found %d mismatches", workers, n)
		}
		s.Close()
	}
}

// TestBatchChangedAndBack: one upload body that changes a household and
// then changes it back. Prepare sees the original record installed for the
// second copy and skips its extraction; apply, in body order, finds the
// changed record installed instead and extracts it after all. The fleet ends
// where it started, byte for byte, having folded twice — and replaying the
// WAL after a crash reaches the same state.
func TestBatchChangedAndBack(t *testing.T) {
	const households = 12
	ds := inspector.Generate(83, households).Households
	alt := inspector.Generate(84, households).Households
	dir := t.TempDir()
	s := openTestServer(t, Config{Workers: 2, Shards: 4, QueueCapacity: households, DataDir: dir})
	ingestFleet(t, s, ds)
	ids := make([]string, households)
	for i, h := range ds {
		ids[i] = h.ID
	}
	before := servedState(t, s, ids)
	sh := s.shardFor(ds[7].ID)
	sh.mu.Lock()
	version := sh.version
	sh.mu.Unlock()

	body := wireBody(t, &inspector.Household{ID: ds[7].ID, Devices: alt[7].Devices}, ds[7])
	if w := do(s, "POST", "/v1/ingest/inspector", body); w.Code != http.StatusOK {
		t.Fatalf("changed-and-back upload: %d %s", w.Code, w.Body.String())
	}
	if n := s.reg.CounterValue(obs.Key("serve_refold", "result", "folded")); n != households+2 {
		t.Fatalf("serve_refold{result=folded} = %d, want %d", n, households+2)
	}
	sh.mu.Lock()
	moved := sh.version - version
	sh.mu.Unlock()
	if moved != 2 {
		t.Fatalf("shard version moved %d, want 2", moved)
	}
	if n := s.SelfCheck(); n != 0 {
		t.Fatalf("selfcheck found %d mismatches", n)
	}
	after := servedState(t, s, ids)
	delete(before, "fleet") // the fleet version moved
	for key, b := range before {
		if !bytes.Equal(after[key], b) {
			t.Fatalf("%s differs after changing a household and back", key)
		}
	}
	// A copy taken before Close is a crash image: every record in the WAL.
	image := copyDataDir(t, dir)
	s.Close()

	re := openTestServer(t, Config{Workers: 2, Shards: 4, DataDir: image})
	if n := re.reg.CounterValue("serve_wal_replay_records"); n != households+2 {
		t.Fatalf("replayed %d WAL records, want %d", n, households+2)
	}
	got := servedState(t, re, ids)
	for key, b := range before {
		if !bytes.Equal(got[key], b) {
			t.Fatalf("%s differs after replaying the WAL", key)
		}
	}
}

// TestRestartReuploadSkips pins the record-hash invariant end to end: a
// recovered record's hash is taken from the bytes on disk, an uploaded
// one's from the record the server builds, and the two agree — so after a
// restart, re-uploading every household unchanged folds nothing and moves
// no shard version.
func TestRestartReuploadSkips(t *testing.T) {
	const households, checkpointed = 30, 20
	ds := inspector.Generate(85, households).Households
	dir := t.TempDir()
	s := openTestServer(t, Config{Workers: 2, Shards: 4, QueueCapacity: households,
		DataDir: dir, CheckpointEvery: checkpointed})
	// The upload that brings the WAL to checkpointed records checkpoints
	// before it is acknowledged; the rest stay in the WAL. A copy taken
	// before Close is then a crash image holding both.
	ingestFleet(t, s, ds[:checkpointed])
	ingestFleet(t, s, ds[checkpointed:])
	image := copyDataDir(t, dir)
	s.Close()

	re := openTestServer(t, Config{Workers: 2, Shards: 4, QueueCapacity: households, DataDir: image})
	if n := re.reg.CounterValue("serve_checkpoint_households_loaded"); n != checkpointed {
		t.Fatalf("loaded %d checkpoint households, want %d", n, checkpointed)
	}
	if n := re.reg.CounterValue("serve_wal_replay_records"); n != households-checkpointed {
		t.Fatalf("replayed %d WAL records, want %d", n, households-checkpointed)
	}
	versions := func() []uint64 {
		out := make([]uint64, len(re.shards))
		for i, sh := range re.shards {
			sh.mu.Lock()
			out[i] = sh.version
			sh.mu.Unlock()
		}
		return out
	}
	vBefore, fleetBefore := versions(), re.fleetVersion.Load()
	ingestFleet(t, re, ds)
	if n := re.reg.CounterValue(obs.Key("serve_refold", "result", "skipped")); n != households {
		t.Fatalf("serve_refold{result=skipped} = %d, want %d", n, households)
	}
	if n := re.reg.CounterValue(obs.Key("serve_refold", "result", "folded")); n != 0 {
		t.Fatalf("serve_refold{result=folded} = %d, want 0", n)
	}
	for i, v := range versions() {
		if v != vBefore[i] {
			t.Fatalf("shard %d version moved %d -> %d on unchanged re-upload", i, vBefore[i], v)
		}
	}
	if v := re.fleetVersion.Load(); v != fleetBefore {
		t.Fatalf("fleet version moved %d -> %d on unchanged re-upload", fleetBefore, v)
	}
}

// TestRecoveryBadRecordAborts: a record that passed its checksum but does
// not decode is a writer bug, not disk damage, and aborts the boot — with
// an error naming the first bad record in log order, identical at any
// worker count even though prepare decodes the records out of order.
func TestRecoveryBadRecordAborts(t *testing.T) {
	ds := inspector.Generate(86, 200).Households
	bad := []byte(`{"id":"broken","devices":[{"id":"d","oui":"zz:zz:zz"}]}`)
	garbage := []byte(`not json`)

	walTail := wireRecords(ds[100:])
	walTail[40], walTail[90] = bad, garbage
	ckpt := checkpointBlobs(t, ds[:100], 4)
	badCkpt := checkpointBlobs(t, ds[:100], 4)
	lines := bytes.SplitAfter(badCkpt[2], []byte{'\n'})
	lines = append(lines[:3], append([][]byte{append(garbage, '\n')}, lines[3:]...)...)
	badCkpt[2] = bytes.Join(lines, nil)
	badCkpt[3] = append(badCkpt[3], append(bad, '\n')...)

	for _, c := range []struct {
		name  string
		blobs [][]byte
		tail  [][]byte
		want  string
	}{
		{"wal", ckpt, walTail, "wal record 41: "},
		{"checkpoint", badCkpt, wireRecords(ds[100:]), "checkpoint shard 2 record 4: "},
	} {
		dir := t.TempDir()
		writeImage(t, dir, c.blobs, 100, c.tail)
		var msgs []string
		for _, workers := range []int{1, 4} {
			s, err := Open(Config{Workers: workers, Shards: 4, DataDir: dir})
			if err == nil {
				s.Close()
				t.Fatalf("%s: workers=%d: Open recovered an undecodable record", c.name, workers)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: workers=%d: error %q does not name %q", c.name, workers, err, c.want)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("%s: error differs by worker count:\n%s\n%s", c.name, msgs[0], msgs[1])
		}
		// A failed boot leaves the image as it found it.
		if segs, err := store.Segments(dir); err != nil || len(segs) != 1 {
			t.Fatalf("%s: segments after failed boots: %v, %v", c.name, segs, err)
		}
	}
}

// BenchmarkRecover times serve.Open over a durable image: a checkpoint of
// most of the fleet plus a WAL tail, as the benchmark's ingest set-up
// recovers it.
func BenchmarkRecover(b *testing.B) {
	const households, checkpointed = 1024, 768
	hhs := inspector.Generate(87, households).Households
	blobs := checkpointBlobs(b, hhs[:checkpointed], 8)
	tail := wireRecords(hhs[checkpointed:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "image")
		if err != nil {
			b.Fatal(err)
		}
		writeImage(b, dir, blobs, checkpointed, tail)
		b.StartTimer()
		s, err := Open(Config{Shards: 8, DataDir: dir})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
		b.StartTimer()
	}
}
