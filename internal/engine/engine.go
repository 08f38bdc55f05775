// Package engine provides the deterministic parallel primitives behind the
// analysis engine: bounded worker pools, contiguous sharding with
// per-shard/per-item sub-seeds, and ordered fan-out/fan-in helpers.
//
// Determinism contract: every helper merges results by index, never by
// completion order, and sub-seeds depend only on (seed, stream) — so any
// worker count, including 1, produces byte-identical output. Parallelism
// may change wall time, never content.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values < 1 mean "one per CPU".
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// parallelism caps a resolved worker count at the runtime's actual
// parallelism. Goroutines beyond GOMAXPROCS cannot run CPU-bound work
// concurrently, so spawning them only buys scheduler overhead — on a 1-core
// box every fan-out degrades to the inline sequential loop (and the
// determinism contract makes that invisible in output).
func parallelism(workers int) int {
	if p := runtime.GOMAXPROCS(0); workers > p {
		return p
	}
	return workers
}

// testHookSpawn, when non-nil, is called immediately before every goroutine
// the engine spawns. Tests use it to assert the inline fallback really
// spawns nothing.
var testHookSpawn func()

func spawned() {
	if testHookSpawn != nil {
		testHookSpawn()
	}
}

// Range is a half-open shard [Start, End) of a larger index space.
type Range struct {
	Start, End int
}

// Shards splits n items into at most workers contiguous ranges whose sizes
// differ by at most one. Empty shards are omitted, so the result covers
// [0, n) exactly.
func Shards(n, workers int) []Range {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]Range, 0, workers)
	base, rem := n/workers, n%workers
	start := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Range{Start: start, End: start + size})
		start += size
	}
	return out
}

// ForEachShard runs fn once per shard, one goroutine each, and waits for
// all. Shards are contiguous, so fn can write disjoint slice ranges without
// synchronisation. When the effective parallelism is 1 — a single shard, or
// GOMAXPROCS == 1 — the shards run inline on the caller's goroutine in shard
// order, spawning nothing.
func ForEachShard(n, workers int, fn func(shard int, r Range)) {
	shards := Shards(n, workers)
	if len(shards) == 0 {
		return
	}
	if len(shards) == 1 || parallelism(len(shards)) <= 1 {
		for i, r := range shards {
			fn(i, r)
		}
		return
	}
	var wg sync.WaitGroup
	for i, r := range shards {
		wg.Add(1)
		spawned()
		go func(i int, r Range) {
			defer wg.Done()
			fn(i, r)
		}(i, r)
	}
	wg.Wait()
}

// Map runs fn(i) for every i in [0, n) across the pool and returns the
// results in index order. Unlike ForEachShard, tasks are pulled from a
// shared counter, so one slow task does not starve a whole shard — the
// right shape for heterogeneous work like the artifact set.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// An explicit worker count above the runtime's parallelism (workers=4 on
	// a 1-core box) buys nothing for CPU-bound tasks; degrade to the inline
	// loop rather than paying goroutine + work-stealing overhead.
	workers = parallelism(workers)
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		spawned()
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ShardOf assigns a string key to one of shards buckets by FNV-1a 64-bit
// hash. The assignment depends only on (key, shards) — never on process
// state, insertion order, or map iteration — so two processes (or one
// process across a restart) always agree on where a key lives. This is the
// household→shard function the serving layer's partitioned fleet state and
// its checkpoint files share.
func ShardOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// SubSeed derives a deterministic per-shard (or per-item) seed from a base
// seed and a stream number, using the splitmix64 finaliser so that adjacent
// streams land far apart in the rand state space.
func SubSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
