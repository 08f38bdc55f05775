package serve

import (
	"crypto/sha256"
	"fmt"

	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
)

// This file is the fold: the one path by which an inspector record enters
// fleet state, shared by batch uploads (serve.go ingest) and boot-time
// recovery (durable.go). The wire record is the unit of work, in two
// phases:
//
//   - prepare is pure and runs in parallel (engine.Map over
//     Config.Workers): decode the record or build its canonical bytes, hash
//     them, extract the household's singleton partials;
//   - apply runs in record order under the shard locks: retract the
//     household's installed contribution and fold the new one in.
//
// Records move foldChunk at a time, so what prepare holds at once — record
// bytes, decoded households, partials — is bounded by the chunk, never by
// the fleet. Worker count cannot reach the output: prepare has no effects
// and apply sees the same records in the same order at any count.

// foldChunk is how many records one prepare pass holds.
const foldChunk = 128

// prepared is one wire record made ready to apply.
type prepared struct {
	hh *inspector.Household
	// record is hh's canonical wire record (inspector.WireRecord): the WAL
	// payload and, hashed, the household's content identity.
	record []byte
	hash   [sha256.Size]byte
	// contrib is hh's singleton partials. Nil when prepare skipped the
	// extraction because the record was already installed; apply extracts
	// it if it needs it.
	contrib *analysis.HouseholdPartial
}

// prepareUpload makes an uploaded household ready to apply. Uploaded bytes
// are untrusted and need not be canonical, so the record is rebuilt from
// the decoded household.
func (s *Server) prepareUpload(hh *inspector.Household) prepared {
	rec := hh.WireRecord()
	return s.extract(prepared{hh: hh, record: rec, hash: sha256.Sum256(rec)})
}

// prepareRecord decodes one record the server wrote (a WAL payload or a
// checkpoint line). Its bytes are canonical, so their hash is the decoded
// household's content hash without a re-marshal.
func (s *Server) prepareRecord(rec []byte) (prepared, error) {
	hh, err := inspector.DecodeWireRecord(rec)
	if err != nil {
		return prepared{}, err
	}
	return s.extract(prepared{hh: hh, record: rec, hash: sha256.Sum256(rec)}), nil
}

// extract fills in p's partials unless apply is sure not to need them. The
// installed-hash peek only saves work: apply re-checks under the lock.
func (s *Server) extract(p prepared) prepared {
	if !s.shardFor(p.hh.ID).installed(p.hh.ID, p.hash) {
		p.contrib = analysis.HouseholdPartialOf(p.hh)
	}
	return p
}

// apply installs p as its household's record: the installed record's
// singleton partials are retracted and p's folded in — O(one household),
// never O(shard). The retraction is recomputed from the immutable installed
// record rather than stored: stored, it would cost about 5.3 KB of live heap
// per household, more than twice the record's 2.4 KB (BenchmarkFleetHeap's
// fleet). It is only valid while that exact record is installed:
// extractions run outside the lock, and the commit re-checks and retries on
// a concurrent replacement of the same household.
//
// Returns false when p's hash matches the installed record: the refold is
// idempotent — no retract, no fold. A household gets its entry when its
// first record is installed, never before.
func (s *Server) apply(p *prepared) bool {
	sh := s.shardFor(p.hh.ID)
	var prev *inspector.Household
	var retract *analysis.HouseholdPartial
	for {
		sh.mu.Lock()
		var installed *inspector.Household
		if st, ok := sh.households[p.hh.ID]; ok {
			if st.contribHash == p.hash {
				sh.mu.Unlock()
				return false
			}
			installed = st.inspector
		}
		if installed == prev && p.contrib != nil {
			if prev != nil {
				sh.subContrib(retract)
			}
			sh.addContrib(p.contrib)
			sh.households[p.hh.ID] = &householdState{inspector: p.hh, contribHash: p.hash}
			sh.mu.Unlock()
			return true
		}
		prev = installed
		sh.mu.Unlock()
		if p.contrib == nil {
			p.contrib = analysis.HouseholdPartialOf(p.hh)
		}
		if prev != nil {
			retract = analysis.HouseholdPartialOf(prev)
		}
	}
}

// logRecord is one raw record in recovery order, with its place in the
// durable image for error messages.
type logRecord struct {
	b     []byte
	shard int // checkpoint shard, or -1 for the WAL
	n     int // 1-based position within the checkpoint shard or the WAL replay
}

func (r logRecord) String() string {
	if r.shard < 0 {
		return fmt.Sprintf("wal record %d", r.n)
	}
	return fmt.Sprintf("checkpoint shard %d record %d", r.shard, r.n)
}

// replay folds recovered records in log order, foldChunk at a time.
type replay struct {
	s    *Server
	recs []logRecord
}

func (r *replay) add(rec logRecord) error {
	r.recs = append(r.recs, rec)
	if len(r.recs) < foldChunk {
		return nil
	}
	return r.flush()
}

// flush prepares the buffered records in parallel (engine.Map) and applies
// them in log order. A record that passed its checksum but fails to decode
// is a writer bug or a format change, not disk damage: the first one in log
// order aborts the boot, named the same at any worker count.
func (r *replay) flush() error {
	errs := make([]error, len(r.recs))
	ps := engine.Map(r.s.cfg.Workers, len(r.recs), func(i int) prepared {
		p, err := r.s.prepareRecord(r.recs[i].b)
		errs[i] = err
		return p
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", r.recs[i], err)
		}
	}
	for i := range ps {
		r.s.apply(&ps[i])
	}
	r.recs = r.recs[:0]
	return nil
}
