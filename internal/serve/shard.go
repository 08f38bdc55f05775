package serve

import (
	"context"
	"crypto/sha256"
	"sort"
	"sync"
	"time"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
)

// fleetShard is one hash slice of the fleet: households whose IDs map to it
// under engine.ShardOf, an independent lock, a version counter bumped on
// every inspector mutation, and the incrementally maintained merged partial
// aggregates for the sharded artifacts. Sharding is purely an
// availability/latency structure — artifact bytes are identical for any
// shard count, because the partial aggregates merge partition-invariantly
// (internal/analysis/partial.go) and every read-side assembly sorts by
// household ID.
type fleetShard struct {
	mu         sync.Mutex
	households map[string]*householdState
	version    uint64
	// inspectorN counts households with a crowdsourced record — the
	// denominator the live aggregates cover.
	inspectorN int
	// liveEntropy/liveMitigations are the shard's *live* merged partials:
	// every ingest folds the household's previous contribution out and the
	// new one in (fold.go apply), so a read snapshots running counts
	// instead of recomputing the shard. Maintained unless
	// Config.DisableIncremental.
	liveEntropy     *analysis.EntropyPartial
	liveMitigations *analysis.MitigationPartial
	partials        map[string]shardPartialEntry
	// flights single-flights the batch-recompute path per artifact: the
	// first miss computes, concurrent misses at the same version wait for
	// its result instead of duplicating the work.
	flights map[string]*partialFlight
}

// shardPartialEntry caches one artifact's partial aggregate for the shard
// state at version; any mutation of the shard invalidates it — and only it:
// an upload leaves every other shard's cached partial warm.
type shardPartialEntry struct {
	version    uint64
	households int
	val        any
}

// partialFlight is one in-progress batch recompute. val and n are written
// before done closes and only read after.
type partialFlight struct {
	version uint64
	done    chan struct{}
	val     any
	n       int
}

func newShards(n int) []*fleetShard {
	shards := make([]*fleetShard, n)
	for i := range shards {
		shards[i] = &fleetShard{
			households:      make(map[string]*householdState),
			liveEntropy:     analysis.NewEntropyPartial(),
			liveMitigations: analysis.NewMitigationPartial(),
			partials:        make(map[string]shardPartialEntry),
			flights:         make(map[string]*partialFlight),
		}
	}
	return shards
}

// shardFor maps a household ID to its shard. The hash is process-independent
// (FNV-1a), so checkpoints, restarts, and any two servers with the same
// shard count agree on placement.
func (s *Server) shardFor(id string) *fleetShard {
	return s.shards[engine.ShardOf(id, len(s.shards))]
}

// household returns (creating if needed) a household's state. Caller holds
// sh.mu.
func (sh *fleetShard) household(id string) *householdState {
	st, ok := sh.households[id]
	if !ok {
		st = &householdState{protocols: make(map[string]int), sources: make(map[string]bool)}
		sh.households[id] = st
	}
	return st
}

// inspectorSnapshot returns the shard's crowdsourced households in sorted-ID
// order. Caller holds sh.mu; the households themselves are shared immutably
// (ingest replaces them whole, never mutates).
func (sh *fleetShard) inspectorSnapshot() []*inspector.Household {
	ids := make([]string, 0, len(sh.households))
	for id, st := range sh.households {
		if st.inspector != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]*inspector.Household, len(ids))
	for i, id := range ids {
		out[i] = sh.households[id].inspector
	}
	return out
}

// installed reports whether the household's installed record has content
// hash h. Caller does not hold sh.mu.
func (sh *fleetShard) installed(id string, h [sha256.Size]byte) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.households[id]
	return ok && st.inspector != nil && st.contribHash == h
}

// addContrib folds one household's singleton partials into the live
// aggregates; subContrib retracts them. Caller holds sh.mu.
func (sh *fleetShard) addContrib(c *analysis.HouseholdPartial) {
	sh.liveEntropy.Add(c.Entropy)
	sh.liveMitigations.Add(c.Mitigations)
}

func (sh *fleetShard) subContrib(c *analysis.HouseholdPartial) {
	sh.liveEntropy.Sub(c.Entropy)
	sh.liveMitigations.Sub(c.Mitigations)
}

// shardedArtifact describes one artifact served by per-shard partial merge:
// how to snapshot the live incremental aggregate, and how to recompute the
// partial from a household snapshot (the cold path — -incremental=false —
// and the self-check's shadow).
type shardedArtifact struct {
	batch func([]*inspector.Household) any
	// live clones the shard's incrementally maintained aggregate. Caller
	// holds sh.mu. Nil means the artifact has no live form and always takes
	// the batch path (tests use this to exercise the single-flight).
	live func(*fleetShard) any
}

// shardedArtifacts maps the artifacts served via per-shard partial merge.
// Everything else takes the full-snapshot Study path in RunFleetArtifact.
var shardedArtifacts = map[string]shardedArtifact{
	"table2": {
		batch: func(hhs []*inspector.Household) any { return analysis.EntropyPartialOf(hhs, nil) },
		live:  func(sh *fleetShard) any { return sh.liveEntropy.Clone() },
	},
	"mitigations": {
		batch: func(hhs []*inspector.Household) any { return analysis.MitigationPartialOf(hhs, nil) },
		live:  func(sh *fleetShard) any { return sh.liveMitigations.Clone() },
	},
}

// renderSharded merges shard partials for one sharded artifact through the
// same iotlan result constructors the offline Study uses — shared by the
// read path and the self-check so "byte-identical" means the full rendered
// surface.
func renderSharded(name string, parts []any) iotlan.Result {
	switch name {
	case "table2":
		ps := make([]*analysis.EntropyPartial, len(parts))
		for i, p := range parts {
			ps[i] = p.(*analysis.EntropyPartial)
		}
		return iotlan.EntropyResult(analysis.MergeEntropy(ps))
	case "mitigations":
		ps := make([]*analysis.MitigationPartial, len(parts))
		for i, p := range parts {
			ps[i] = p.(*analysis.MitigationPartial)
		}
		return iotlan.MitigationResult(analysis.MergeMitigations(ps))
	}
	panic("serve: renderSharded of unknown artifact " + name)
}

// partialFor returns the shard's partial aggregate for one artifact plus the
// shard version the value corresponds to.
//
// With incremental maintenance on, a stale entry is refreshed by *cloning*
// the live aggregate under the shard lock — a counter copy, no re-extraction
// — so the cache check and store are one critical section and recomputation
// cannot be duplicated by construction. The batch fallback (cold path when
// incremental maintenance is off) snapshots the households and recomputes
// outside the lock; concurrent misses at the same version coalesce onto a
// single flight — previously both ran compute and the laggard's store
// silently won, wasting a full shard recompute per racing reader.
func (s *Server) partialFor(sh *fleetShard, name string, sa shardedArtifact) (any, int, uint64) {
	sh.mu.Lock()
	v := sh.version
	if e, ok := sh.partials[name]; ok && e.version == v {
		sh.mu.Unlock()
		s.reg.Counter("serve_shard_partials", "result", "hit").Inc()
		return e.val, e.households, v
	}
	if sa.live != nil && s.incremental() {
		val := sa.live(sh)
		n := sh.inspectorN
		sh.partials[name] = shardPartialEntry{version: v, households: n, val: val}
		sh.mu.Unlock()
		s.reg.Counter("serve_shard_partials", "result", "miss").Inc()
		return val, n, v
	}
	if f, ok := sh.flights[name]; ok && f.version == v {
		sh.mu.Unlock()
		s.reg.Counter("serve_shard_partials", "result", "wait").Inc()
		<-f.done
		return f.val, f.n, f.version
	}
	f := &partialFlight{version: v, done: make(chan struct{})}
	sh.flights[name] = f
	hhs := sh.inspectorSnapshot()
	sh.mu.Unlock()
	s.reg.Counter("serve_shard_partials", "result", "miss").Inc()
	f.val, f.n = sa.batch(hhs), len(hhs)
	sh.mu.Lock()
	if sh.flights[name] == f {
		delete(sh.flights, name)
	}
	// A racing ingest may have bumped the version mid-compute; never clobber
	// a fresher entry with this older snapshot.
	if e, ok := sh.partials[name]; !ok || e.version < v {
		sh.partials[name] = shardPartialEntry{version: v, households: f.n, val: f.val}
	}
	sh.mu.Unlock()
	close(f.done)
	return f.val, f.n, v
}

// runShardedArtifact serves table2/mitigations by merging per-shard partial
// aggregates at read time (fanned out across the worker budget, merged by
// shard index — never completion order) and rendering the merged rows
// through the same iotlan result constructors the offline Study uses.
// Output bytes are identical to the full-snapshot path for any shard count.
//
// The memo is labeled with the per-shard version *vector the sweep actually
// observed* — partialFor returns each contribution's version alongside the
// value. The previous fleet-version label was read before the sweep, so a
// racing ingest could memoize a body mixing shard states under a version
// that matched neither; with the vector label, a hit requires every shard
// to still be exactly at the version its contribution came from.
func (s *Server) runShardedArtifact(ctx context.Context, a iotlan.Artifact, sa shardedArtifact) ([]byte, error) {
	s.mu.Lock()
	memo, ok := s.fleetMemo[a.Name]
	s.mu.Unlock()
	if ok && s.shardVersionsMatch(memo.shardVers) {
		s.reg.Counter("serve_fleet_cache", "result", "hit").Inc()
		return memo.body, nil
	}
	s.reg.Counter("serve_fleet_cache", "result", "miss").Inc()

	bStart := time.Now()
	_, bspan := s.spans.StartSpan(ctx, "serve", "artifact.build", "artifact", a.Name)
	type contribution struct {
		val any
		n   int
		ver uint64
	}
	contribs := engine.Map(s.cfg.Workers, len(s.shards), func(i int) contribution {
		val, n, ver := s.partialFor(s.shards[i], a.Name, sa)
		return contribution{val, n, ver}
	})
	households := 0
	observed := make([]uint64, len(contribs))
	parts := make([]any, len(contribs))
	for i, c := range contribs {
		households += c.n
		observed[i] = c.ver
		parts[i] = c.val
	}
	res := renderSharded(a.Name, parts)
	bspan.End()
	s.stageObserve("artifact.build", time.Since(bStart))

	body := mustJSON(artifactReport{
		Name:       a.Name,
		PaperRef:   a.PaperRef,
		Kind:       a.Kind,
		Households: households,
		ID:         res.ID,
		Rendered:   res.Rendered,
		Metrics:    res.Metrics,
	})
	s.mu.Lock()
	s.fleetMemo[a.Name] = fleetEntry{shardVers: observed, body: body}
	s.mu.Unlock()
	return body, nil
}

// shardVersionsMatch reports whether every shard currently sits at the
// version recorded in vers — the memo-hit condition for sharded artifacts.
func (s *Server) shardVersionsMatch(vers []uint64) bool {
	if len(vers) != len(s.shards) {
		return false
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		v := sh.version
		sh.mu.Unlock()
		if v != vers[i] {
			return false
		}
	}
	return true
}
