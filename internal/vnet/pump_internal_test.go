package vnet

import "testing"

// TestSelfIdentifiesGoroutine: grants are owned per goroutine, so self must
// be stable on one goroutine and distinct across two.
func TestSelfIdentifiesGoroutine(t *testing.T) {
	a := self()
	if a == 0 || self() != a {
		t.Fatalf("self() = %d then %d on one goroutine", a, self())
	}
	other := make(chan actor)
	go func() { other <- self() }()
	if b := <-other; b == 0 || b == a {
		t.Fatalf("self() = %d on a second goroutine, first was %d", b, a)
	}
}

// BenchmarkSelf is the goroutine identity every operation pays on entry:
// one runtime.Stack header, parsed.
func BenchmarkSelf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		selfSink = self()
	}
}

var selfSink actor
