package serve

import (
	"bytes"
	"fmt"
	"time"

	"iotlan/internal/inspector"
	"iotlan/internal/serve/store"
)

// This file is the durability layer: with Config.DataDir set, every
// acknowledged inspector ingest is appended to a write-ahead log (one
// checksummed record per household, inspector wire format) before it
// mutates fleet state, periodic checkpoints snapshot the shards, and Open
// replays checkpoint + WAL on boot. Captures are stateless — a capture's
// report depends only on its own upload — so the crowdsourced inspector
// records are all the state there is, and all that crosses restarts.

// Open builds the server, recovering durable state from cfg.DataDir first
// (latest complete checkpoint, then every intact WAL record after it). With
// DataDir empty it is equivalent to New.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := newServer(cfg)
	if cfg.DataDir != "" {
		if err := s.recoverState(); err != nil {
			return nil, fmt.Errorf("serve: recover %s: %w", cfg.DataDir, err)
		}
		wal, err := store.OpenLog(cfg.DataDir, cfg.WALSync)
		if err != nil {
			return nil, fmt.Errorf("serve: open wal: %w", err)
		}
		s.wal = wal
		s.reg.Gauge("serve_wal_segment").Set(int64(wal.Segment()))
		if cfg.SelfCheckEvery > 0 {
			// No upload can arrive before Open returns, so this checks
			// exactly the recovered state: the live aggregates the replay
			// folded must render byte-identically to a batch recompute of
			// the recovered records.
			s.SelfCheck()
		}
	}
	return s, nil
}

// recoverState rebuilds fleet state: load the newest complete checkpoint,
// then replay WAL segments from the checkpoint's label onward, every record
// through the fold (fold.go) — prepared in parallel, applied in log order.
// Replay is idempotent — households replace whole — so a record captured
// by both a checkpoint and the racing WAL segment converges to one state,
// and since replay folds exactly as live ingest does, a restarted
// server holds the incremental state a never-crashed one would (the
// boot-time self-check in Open proves it against a batch recompute). A torn
// or corrupt record ends its segment's replay and replay goes on with the
// next segment (store.ReplayLog) — counted under serve_wal_replay_truncated
// and logged, never fatal: a log stops at its first failed write and a boot
// starts a fresh segment, so that tail is the un-acknowledged write a crash
// or a failure interrupted, and later segments hold later acknowledged
// records.
func (s *Server) recoverState() error {
	dir := s.cfg.DataDir
	mf, blobs, ok, err := store.LatestCheckpoint(dir)
	if err != nil {
		return err
	}
	rp := &replay{s: s}
	fromSeg, loaded := 0, 0
	if ok {
		for i, blob := range blobs {
			// A shard blob is EncodeWire output. JSON never contains a raw
			// newline, so splitting at '\n' yields exactly its records.
			for n := 1; len(blob) > 0; {
				var line []byte
				line, blob, _ = bytes.Cut(blob, []byte{'\n'})
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				if err := rp.add(logRecord{b: line, shard: i, n: n}); err != nil {
					return err
				}
				n++
				loaded++
			}
		}
		if err := rp.flush(); err != nil {
			return err
		}
		fromSeg = mf.Seq
		s.reg.Counter("serve_checkpoint_households_loaded").Add(uint64(loaded))
	}
	walN := 0
	st, err := store.ReplayLog(dir, fromSeg, func(p []byte) error {
		walN++
		return rp.add(logRecord{b: p, shard: -1, n: walN})
	})
	if err == nil {
		err = rp.flush()
	}
	if err != nil {
		return err
	}
	s.reg.Counter("serve_wal_replay_records").Add(uint64(st.Records))
	if st.Truncated {
		s.reg.Counter("serve_wal_replay_truncated").Inc()
		if s.logger != nil {
			s.logger.Warn("wal replay skipped a damaged segment tail",
				"segment", st.TruncatedSegment, "records_recovered", st.Records, "err", st.Err)
		}
	}
	if s.logger != nil {
		s.logger.Info("recovered durable state",
			"checkpoint_households", loaded, "wal_records", st.Records, "wal_segments", st.Segments)
	}
	if loaded+st.Records > 0 {
		s.fleetVersion.Add(1)
	}
	return nil
}

// walAppend logs one prepared chunk, one record per household, before the
// chunk touches fleet state. The payloads are the record bytes prepare
// built, so nothing is marshalled twice and the log holds exactly the bytes
// recovery hashes. When it returns nil every record has reached the kernel
// (and, in group/always sync modes, stable storage) — the ack the client
// gets is backed by the log. Caller holds ckptGate.RLock.
func (s *Server) walAppend(ps []prepared) error {
	for i := range ps {
		if err := s.wal.Append(ps[i].record); err != nil {
			return err
		}
	}
	s.reg.Counter("serve_wal_appends").Add(uint64(len(ps)))
	s.walSince.Add(int64(len(ps)))
	return nil
}

// maybeCheckpoint checkpoints when enough WAL records accumulated since the
// last one. At most one checkpoint runs at a time; concurrent triggers fall
// through (the running checkpoint covers their records).
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || s.cfg.CheckpointEvery <= 0 ||
		s.walSince.Load() < int64(s.cfg.CheckpointEvery) {
		return
	}
	if !s.ckptMu.TryLock() {
		return
	}
	defer s.ckptMu.Unlock()
	if s.walSince.Load() < int64(s.cfg.CheckpointEvery) {
		return // the checkpoint we raced against already covered us
	}
	s.checkpoint()
}

// checkpoint rotates the WAL to a fresh segment and snapshots every shard,
// labeled with that segment: the snapshot then covers everything below it,
// so pre-checkpoint segments are compacted away (unless retainWAL). The
// ckptGate write lock is held only across rotate + pointer capture — every
// (append, apply) ingest pair runs under the read lock, so a record in a
// pre-rotation segment is always in the captured state; encoding and disk
// writes happen after the gate drops. Caller holds ckptMu.
func (s *Server) checkpoint() {
	start := time.Now()
	s.ckptGate.Lock()
	seg, err := s.wal.Rotate()
	if err != nil {
		s.ckptGate.Unlock()
		s.checkpointFailed(err)
		return
	}
	snaps := make([][]*inspector.Household, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		snaps[i] = sh.inspectorSnapshot()
		sh.mu.Unlock()
	}
	s.walSince.Store(0)
	s.ckptGate.Unlock()

	blobs := make([][]byte, len(snaps))
	records := 0
	for i, hhs := range snaps {
		var buf bytes.Buffer
		if err := inspector.EncodeWire(&buf, hhs); err != nil {
			s.checkpointFailed(err)
			return
		}
		blobs[i] = buf.Bytes()
		records += len(hhs)
	}
	if err := store.WriteCheckpoint(s.cfg.DataDir, seg, blobs, records); err != nil {
		s.checkpointFailed(err)
		return
	}
	if !s.cfg.retainWAL {
		if _, _, err := store.CompactBefore(s.cfg.DataDir, seg); err != nil {
			s.checkpointFailed(err)
			return
		}
	}
	s.reg.Counter("serve_checkpoints").Inc()
	s.reg.Gauge("serve_wal_segment").Set(int64(seg))
	if s.logger != nil {
		s.logger.Info("checkpoint written",
			"segment", seg, "households", records, "ms", time.Since(start).Milliseconds())
	}
}

// checkpointFailed records a checkpoint error. The WAL still holds every
// acknowledged record, so durability degrades to a longer replay, not loss.
// A failure inside Rotate (an fsync, the close of the old segment, or the
// creation or directory fsync of the new one) also stops the log, as any
// failed WAL write or fsync does: every later upload then answers 503 until
// a restart.
func (s *Server) checkpointFailed(err error) {
	s.reg.Counter("serve_checkpoint_errors").Inc()
	if s.logger != nil {
		s.logger.Error("checkpoint failed", "err", err)
	}
}

// closeDurable is Close's flush: one final checkpoint (even with periodic
// checkpointing off) so the next boot loads a snapshot instead of replaying
// the whole log, then the WAL is synced shut.
func (s *Server) closeDurable() {
	if s.wal == nil {
		return
	}
	s.ckptMu.Lock()
	s.checkpoint()
	s.ckptMu.Unlock()
	if err := s.wal.Close(); err != nil && s.logger != nil {
		s.logger.Error("wal close", "err", err)
	}
}
