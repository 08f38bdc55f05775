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
// under engine.ShardOf, an independent lock, and the live merged partial
// aggregates of the fleet artifacts. Sharding is purely an
// availability/latency structure — artifact bytes are identical for any
// shard count, because the partial aggregates merge partition-invariantly
// (internal/analysis/partial.go).
type fleetShard struct {
	mu sync.Mutex
	// households holds an entry only while it has an installed inspector
	// record, so its length is the denominator the live aggregates cover.
	households map[string]*householdState
	// liveEntropy/liveMitigations are the shard's *live* merged partials:
	// every ingest folds the household's previous contribution out and the
	// new one in (fold.go apply), so a read adds running counts instead of
	// recomputing the shard.
	liveEntropy     *analysis.EntropyPartial
	liveMitigations *analysis.MitigationPartial
}

func newShards(n int) []*fleetShard {
	shards := make([]*fleetShard, n)
	for i := range shards {
		shards[i] = &fleetShard{
			households:      make(map[string]*householdState),
			liveEntropy:     analysis.NewEntropyPartial(),
			liveMitigations: analysis.NewMitigationPartial(),
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

// inspectorSnapshot returns the shard's crowdsourced households in sorted-ID
// order. Caller holds sh.mu; the households themselves are shared immutably
// (ingest replaces them whole, never mutates).
func (sh *fleetShard) inspectorSnapshot() []*inspector.Household {
	ids := make([]string, 0, len(sh.households))
	for id := range sh.households {
		ids = append(ids, id)
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
	return ok && st.contribHash == h
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

// partial is the part of the analysis partial algebra a read needs: folding
// one partial into another.
type partial[P any] interface{ Add(P) }

// fleetArtifact is one artifact served from the shards' live aggregates;
// P is its partial type. A read folds every shard's live aggregate into one
// fresh partial (build); the batch recompute is kept only as SelfCheck's
// oracle (check). Both render through the iotlan result constructor the
// offline Study uses, so "byte-identical" means the full rendered surface.
type fleetArtifact[P partial[P]] struct {
	// empty returns a fresh partial, the identity of Add.
	empty func() P
	// live returns the shard's live aggregate. Caller holds sh.mu.
	live func(*fleetShard) P
	// batch recomputes the partial from scratch over households.
	batch func([]*inspector.Household) P
	// render derives the artifact's result from a partial.
	render func(P) iotlan.Result
}

// servedArtifact is a fleetArtifact with its partial type erased.
type servedArtifact interface {
	// build merges every shard's live aggregate and renders the result. It
	// also returns the households covered.
	build(s *Server) (res iotlan.Result, households int)
	// check reports whether sh's live aggregate renders as a batch
	// recompute of its households does, and how many households it holds.
	check(sh *fleetShard) (ok bool, households int)
}

// fleetArtifacts are the artifacts computed from uploads. Every other
// registry artifact describes the lab and answers ErrOfflineArtifact.
var fleetArtifacts = map[string]servedArtifact{
	"table2": fleetArtifact[*analysis.EntropyPartial]{
		empty: analysis.NewEntropyPartial,
		live:  func(sh *fleetShard) *analysis.EntropyPartial { return sh.liveEntropy },
		batch: func(hhs []*inspector.Household) *analysis.EntropyPartial { return analysis.EntropyPartialOf(hhs, nil) },
		render: func(p *analysis.EntropyPartial) iotlan.Result {
			return iotlan.EntropyResult(p.Rows())
		},
	},
	"mitigations": fleetArtifact[*analysis.MitigationPartial]{
		empty: analysis.NewMitigationPartial,
		live:  func(sh *fleetShard) *analysis.MitigationPartial { return sh.liveMitigations },
		batch: func(hhs []*inspector.Household) *analysis.MitigationPartial {
			return analysis.MitigationPartialOf(hhs, nil)
		},
		render: func(p *analysis.MitigationPartial) iotlan.Result {
			return iotlan.MitigationResult(p.Rows())
		},
	},
}

// build is the one read path: in shard index order, each shard's live
// aggregate is added into one fresh partial under that shard's lock alone,
// and the merge renders outside every lock. A read holds one shard lock at
// a time, for one Add, so writes to the other shards keep flowing.
func (a fleetArtifact[P]) build(s *Server) (iotlan.Result, int) {
	merged := a.empty()
	households := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		merged.Add(a.live(sh))
		households += len(sh.households)
		sh.mu.Unlock()
	}
	return a.render(merged), households
}

// check snapshots the records and adds the live aggregate into a fresh
// partial in one lock hold, so both sides see the same state, then
// recomputes and compares outside the lock so readers and ingest keep
// flowing.
func (a fleetArtifact[P]) check(sh *fleetShard) (bool, int) {
	live := a.empty()
	sh.mu.Lock()
	hhs := sh.inspectorSnapshot()
	live.Add(a.live(sh))
	sh.mu.Unlock()
	got := mustJSON(a.render(live))
	want := mustJSON(a.render(a.batch(hhs)))
	return bytes.Equal(got, want), len(hhs)
}
