package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestShardsCoverExactly(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 3}, {100, 8}, {8, 8}, {5, 100}, {3860, 16},
	} {
		shards := Shards(tc.n, tc.workers)
		covered := 0
		prevEnd := 0
		for _, r := range shards {
			if r.Start != prevEnd {
				t.Fatalf("n=%d w=%d: gap at %d (shards %v)", tc.n, tc.workers, r.Start, shards)
			}
			if r.End <= r.Start {
				t.Fatalf("n=%d w=%d: empty shard %v", tc.n, tc.workers, r)
			}
			covered += r.End - r.Start
			prevEnd = r.End
		}
		if covered != tc.n {
			t.Fatalf("n=%d w=%d: covered %d", tc.n, tc.workers, covered)
		}
		if len(shards) > tc.workers && tc.workers > 0 {
			t.Fatalf("n=%d w=%d: %d shards", tc.n, tc.workers, len(shards))
		}
	}
}

func TestShardOf(t *testing.T) {
	// Stable across calls, in range, and every bucket reachable at realistic
	// key populations (household IDs are "user%05d").
	for _, shards := range []int{1, 2, 3, 8, 64} {
		seen := make([]int, shards)
		for i := 0; i < 10000; i++ {
			key := fmt.Sprintf("user%05d", i)
			s := ShardOf(key, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", key, shards, s)
			}
			if again := ShardOf(key, shards); again != s {
				t.Fatalf("ShardOf(%q, %d) unstable: %d then %d", key, shards, s, again)
			}
			seen[s]++
		}
		for b, n := range seen {
			if n == 0 {
				t.Fatalf("shards=%d: bucket %d never hit", shards, b)
			}
		}
	}
	// Pinned values (FNV-1a 64): the checkpoint layout on disk depends on
	// this function, so a change to the hash silently orphans existing
	// per-shard snapshots. These anchors catch that.
	for _, tc := range []struct {
		key    string
		shards int
		want   int
	}{
		{"user00000", 8, 6},
		{"user00001", 8, 1},
		{"user03859", 8, 3},
		{"user00000", 2, 0},
		{"", 8, 5},
	} {
		if got := ShardOf(tc.key, tc.shards); got != tc.want {
			t.Fatalf("ShardOf(%q, %d) = %d, want %d", tc.key, tc.shards, got, tc.want)
		}
	}
	if got := ShardOf("anything", 1); got != 0 {
		t.Fatalf("ShardOf with 1 shard = %d, want 0", got)
	}
}

func TestShardsBalanced(t *testing.T) {
	shards := Shards(10, 4)
	if len(shards) != 4 {
		t.Fatalf("shards: %v", shards)
	}
	for _, r := range shards {
		if n := r.End - r.Start; n < 2 || n > 3 {
			t.Fatalf("unbalanced shard %v in %v", r, shards)
		}
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := Map(1, 100, fn)
	for _, w := range []int{2, 3, 8, 64} {
		got := Map(w, 100, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d]=%d want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(4, 0, func(i int) int { return i }); out != nil {
		t.Fatalf("empty map: %v", out)
	}
}

func TestForEachShardWritesDisjoint(t *testing.T) {
	const n = 1000
	out := make([]int, n)
	ForEachShard(n, 8, func(shard int, r Range) {
		for i := r.Start; i < r.End; i++ {
			out[i] = i + 1
		}
	})
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("index %d not written (got %d)", i, v)
		}
	}
}

func TestSubSeedDeterministicAndSpread(t *testing.T) {
	if SubSeed(1, 0) != SubSeed(1, 0) {
		t.Fatal("SubSeed not deterministic")
	}
	seen := map[int64]bool{}
	for s := uint64(0); s < 1000; s++ {
		seen[SubSeed(42, s)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("sub-seed collisions: %d unique of 1000", len(seen))
	}
	if SubSeed(1, 5) == SubSeed(2, 5) {
		t.Fatal("different base seeds collide")
	}
}

func TestWorkersFloor(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must be ≥1")
	}
	if Workers(7) != 7 {
		t.Fatal("explicit worker count not respected")
	}
}

// countSpawns runs fn with the spawn hook installed and reports how many
// goroutines the engine started.
func countSpawns(t *testing.T, fn func()) int {
	t.Helper()
	var n atomic.Int64
	testHookSpawn = func() { n.Add(1) }
	defer func() { testHookSpawn = nil }()
	fn()
	return int(n.Load())
}

// With GOMAXPROCS=1 the engine must degrade every fan-out — even an explicit
// workers=4 request — to the inline sequential loop: zero goroutines, same
// output.
func TestSequentialFallbackSpawnsNothing(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	spawnsMap := countSpawns(t, func() {
		got := Map(4, 100, func(i int) int { return i * 3 })
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("inline Map wrong at %d: %d", i, v)
			}
		}
	})
	if spawnsMap != 0 {
		t.Fatalf("Map(4, …) at GOMAXPROCS=1 spawned %d goroutines, want 0", spawnsMap)
	}

	spawnsShard := countSpawns(t, func() {
		out := make([]int, 100)
		ForEachShard(100, 4, func(_ int, r Range) {
			for i := r.Start; i < r.End; i++ {
				out[i] = i + 1
			}
		})
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("inline ForEachShard missed index %d", i)
			}
		}
	})
	if spawnsShard != 0 {
		t.Fatalf("ForEachShard(…, 4) at GOMAXPROCS=1 spawned %d goroutines, want 0", spawnsShard)
	}
}

// Above one core the engine still parallelises: the hook must fire once per
// worker when parallelism allows it.
func TestFanOutSpawnsWhenParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	spawns := countSpawns(t, func() {
		_ = Map(4, 100, func(i int) int { return i })
	})
	if spawns != 4 {
		t.Fatalf("Map(4, 100) at GOMAXPROCS=4 spawned %d goroutines, want 4", spawns)
	}
}
