package serve

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"sync"

	"iotlan"
	"iotlan/internal/analysis"
	"iotlan/internal/engine"
	"iotlan/internal/inspector"
)

// fleetShard is one hash slice of the fleet: households whose IDs map to it
// under engine.ShardOf, an independent lock, a version counter bumped on
// every inspector mutation, and the live merged partial aggregates of the
// fleet artifacts. Sharding is purely an availability/latency structure —
// artifact bytes are identical for any shard count, because the partial
// aggregates merge partition-invariantly (internal/analysis/partial.go).
type fleetShard struct {
	mu         sync.Mutex
	households map[string]*householdState
	version    uint64
	// inspectorN counts households with a crowdsourced record — the
	// denominator the live aggregates cover.
	inspectorN int
	// liveEntropy/liveMitigations are the shard's *live* merged partials:
	// every ingest folds the household's previous contribution out and the
	// new one in (fold.go apply), so a read clones running counts instead
	// of recomputing the shard.
	liveEntropy     *analysis.EntropyPartial
	liveMitigations *analysis.MitigationPartial
	// partials holds, per artifact name, the shardPartial a read last
	// cloned. Any mutation of the shard invalidates it — and only it: an
	// upload leaves every other shard's clone warm.
	partials map[string]any
}

func newShards(n int) []*fleetShard {
	shards := make([]*fleetShard, n)
	for i := range shards {
		shards[i] = &fleetShard{
			households:      make(map[string]*householdState),
			liveEntropy:     analysis.NewEntropyPartial(),
			liveMitigations: analysis.NewMitigationPartial(),
			partials:        make(map[string]any),
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
		st = &householdState{}
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

// fleetArtifact is one artifact served from the shards' live aggregates;
// P is its partial type. Reads merge every shard's clone of the live
// aggregate (build); the batch recompute is kept only as SelfCheck's oracle
// (check). Both render through the iotlan result constructor the offline
// Study uses, so "byte-identical" means the full rendered surface.
type fleetArtifact[P any] struct {
	// live clones the shard's live aggregate. Caller holds sh.mu.
	live func(*fleetShard) P
	// batch recomputes the partial from scratch over households.
	batch func([]*inspector.Household) P
	// render merges shard partials into the artifact's result.
	render func([]P) iotlan.Result
}

// servedArtifact is a fleetArtifact with its partial type erased.
type servedArtifact interface {
	// build merges every shard's partial and renders the result. It also
	// returns the households covered and, per shard, the version its
	// partial was cloned at.
	build(s *Server, name string) (res iotlan.Result, households int, vers []uint64)
	// check reports whether sh's live aggregate renders as a batch
	// recompute of its households does, and how many households it holds.
	check(sh *fleetShard) (ok bool, households int)
}

// fleetArtifacts are the artifacts computed from uploads. Every other
// registry artifact describes the lab and answers ErrOfflineArtifact.
var fleetArtifacts = map[string]servedArtifact{
	"table2": fleetArtifact[*analysis.EntropyPartial]{
		live:  func(sh *fleetShard) *analysis.EntropyPartial { return sh.liveEntropy.Clone() },
		batch: func(hhs []*inspector.Household) *analysis.EntropyPartial { return analysis.EntropyPartialOf(hhs, nil) },
		render: func(ps []*analysis.EntropyPartial) iotlan.Result {
			return iotlan.EntropyResult(analysis.MergeEntropy(ps))
		},
	},
	"mitigations": fleetArtifact[*analysis.MitigationPartial]{
		live: func(sh *fleetShard) *analysis.MitigationPartial { return sh.liveMitigations.Clone() },
		batch: func(hhs []*inspector.Household) *analysis.MitigationPartial {
			return analysis.MitigationPartialOf(hhs, nil)
		},
		render: func(ps []*analysis.MitigationPartial) iotlan.Result {
			return iotlan.MitigationResult(analysis.MergeMitigations(ps))
		},
	},
}

// shardPartial is one shard's partial for one artifact, the households it
// covers, and the shard version it was cloned at.
type shardPartial[P any] struct {
	val        P
	households int
	version    uint64
}

// build fans the shards out across the worker budget and merges their
// partials by shard index — never completion order.
func (a fleetArtifact[P]) build(s *Server, name string) (iotlan.Result, int, []uint64) {
	got := engine.Map(s.cfg.Workers, len(s.shards), func(i int) shardPartial[P] {
		return a.partial(s, s.shards[i], name)
	})
	parts := make([]P, len(got))
	vers := make([]uint64, len(got))
	households := 0
	for i, p := range got {
		parts[i], vers[i] = p.val, p.version
		households += p.households
	}
	return a.render(parts), households, vers
}

// partial returns the shard's partial for the artifact. A stale entry is
// refreshed by cloning the live aggregate under the shard lock — a counter
// copy, no re-extraction — so the cache check and store are one critical
// section and no two reads clone the same shard version.
func (a fleetArtifact[P]) partial(s *Server, sh *fleetShard, name string) shardPartial[P] {
	sh.mu.Lock()
	p, ok := sh.partials[name].(shardPartial[P])
	if ok && p.version == sh.version {
		sh.mu.Unlock()
		s.reg.Counter("serve_shard_partials", "result", "hit").Inc()
		return p
	}
	p = shardPartial[P]{val: a.live(sh), households: sh.inspectorN, version: sh.version}
	sh.partials[name] = p
	sh.mu.Unlock()
	s.reg.Counter("serve_shard_partials", "result", "miss").Inc()
	return p
}

// check snapshots the records and clones the live aggregate in one lock
// hold, so both are at the same version, then recomputes and compares
// outside the lock so readers and ingest keep flowing.
func (a fleetArtifact[P]) check(sh *fleetShard) (bool, int) {
	sh.mu.Lock()
	hhs := sh.inspectorSnapshot()
	live := a.live(sh)
	sh.mu.Unlock()
	got := mustJSON(a.render([]P{live}))
	want := mustJSON(a.render([]P{a.batch(hhs)}))
	return bytes.Equal(got, want), len(hhs)
}

// shardVersionsMatch reports whether every shard currently sits at the
// version recorded in vers — the memo-hit condition for fleet artifacts.
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
