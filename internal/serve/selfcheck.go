package serve

// The shadow-batch self-check: the structural proof that the retraction
// algebra (analysis.Add/Sub over refcounted multisets) kept every shard's
// live incremental aggregate equal to what a from-scratch batch pass over
// the same households would produce — compared byte-for-byte after
// rendering, i.e. on the exact surface clients read. The property tests run
// it after every mutation step; a production server runs it periodically
// via Config.SelfCheckEvery and exposes the verdicts as
// serve_selfcheck{result=ok|mismatch} counters, so a divergence (which
// would mean a bug in the fold bookkeeping, never expected) is visible on
// the metrics page instead of silently corrupting artifacts.

// SelfCheck shadow-recomputes every shard's batch partials from its
// household snapshot and byte-compares their rendering against the live
// incremental aggregates. Returns the number of (shard, artifact)
// comparisons that mismatched; each comparison also counts under
// serve_selfcheck{result}.
func (s *Server) SelfCheck() int {
	mismatches := 0
	for i, sh := range s.shards {
		for name, fa := range fleetArtifacts {
			ok, households := fa.check(sh)
			if ok {
				s.reg.Counter("serve_selfcheck", "result", "ok").Inc()
				continue
			}
			mismatches++
			s.reg.Counter("serve_selfcheck", "result", "mismatch").Inc()
			if s.logger != nil {
				s.logger.Error("selfcheck mismatch: incremental aggregate diverged from batch recompute",
					"shard", i, "artifact", name, "households", households)
			}
		}
	}
	return mismatches
}

// maybeSelfCheck runs the shadow-batch comparison once enough households
// were folded since the last run. Modeled on maybeCheckpoint: at most one
// check runs at a time, concurrent triggers fall through (the running check
// covers their folds).
func (s *Server) maybeSelfCheck() {
	n := int64(s.cfg.SelfCheckEvery)
	if n <= 0 || s.foldsSince.Load() < n {
		return
	}
	if !s.selfMu.TryLock() {
		return
	}
	defer s.selfMu.Unlock()
	if s.foldsSince.Load() < n {
		return // the check we raced against already covered us
	}
	s.foldsSince.Store(0)
	s.SelfCheck()
}
