package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// parse returns what declared names the functions src declares in package p.
func parse(t *testing.T, src string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return declared("p", f)
}

// TestGenericMethodMatches: the linker names a generic type's methods with
// their shape type arguments, spaces included; once those are stripped,
// each reads as its declaration does.
func TestGenericMethodMatches(t *testing.T) {
	decls := parse(t, `package p
type box[T any] struct{ v T }
func (b *box[T]) get() T { return b.v }
func (b box[T]) val() T { return b.v }
type pair[K comparable, V any] struct{}
func (pair[K, V]) swap() {}
`)
	nm := `  49b0a0 T p.(*box[go.shape.int]).get
  49b0e0 T p.(*box[go.shape.struct { p.a int; p.b int }]).get
  4cee60 R p..dict.box[int]
  49b0c0 T p.box[go.shape.struct { p.a int; p.b int }].val
  49b100 T p.pair[go.shape.string,go.shape.int].swap
`
	if got := check(decls, linked(nm), nil); len(got) != 0 {
		t.Fatalf("generic methods reported: %v", got)
	}
}

// TestReceiversNamedAsLinked: a value receiver is pkg.T.M, a pointer
// receiver pkg.(*T).M, a function pkg.F; init is never listed.
func TestReceiversNamedAsLinked(t *testing.T) {
	got := parse(t, `package p
type T struct{}
func (T) Value() {}
func (t *T) Pointer() {}
func F() {}
func init() {}
`)
	want := []string{"p.T.Value", "p.(*T).Pointer", "p.F"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("declared = %q, want %q", got, want)
	}
	if l := linked("  49b0a0 T p.T.Value\n  49b0b0 t p.(*T).Pointer\n  4cee60 R p.F\n"); !l["p.T.Value"] || !l["p.(*T).Pointer"] || l["p.F"] {
		t.Fatalf("linked = %v: want the two text symbols and not the data one", l)
	}
}

// TestUnreachedReported: a declared function that is neither linked nor
// listed is named.
func TestUnreachedReported(t *testing.T) {
	got := check([]string{"p.F", "p.G"}, map[string]bool{"p.F": true}, nil)
	if want := []string{"unreached: p.G"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("check = %q, want %q", got, want)
	}
}

// TestLineWithoutReasonRejected: every allowlist line gives a reason.
func TestLineWithoutReasonRejected(t *testing.T) {
	for _, list := range []string{
		"p.F helper: TestF\np.G\n",
		"p.F helper: TestF\np.G   \n",
		"p.F helper: TestF\n\n",
	} {
		if _, err := readAllow(strings.NewReader(list)); err == nil {
			t.Errorf("readAllow(%q) accepted a line without a reason", list)
		}
	}
	allow, err := readAllow(strings.NewReader("p.F helper: TestF\np.(*T).M oracle: TestM\n"))
	if err != nil {
		t.Fatal(err)
	}
	if allow["p.(*T).M"] != "oracle: TestM" || len(allow) != 2 {
		t.Fatalf("allow = %q", allow)
	}
}

// TestStaleLineReported: a listed function that is now linked, or no
// longer declared, fails the check, so the list cannot outlive its reasons.
func TestStaleLineReported(t *testing.T) {
	allow := map[string]string{
		"p.Linked":   "helper: TestA",
		"p.Gone":     "oracle: TestB",
		"p.Unlinked": "fabric: TestC",
	}
	got := check([]string{"p.Linked", "p.Unlinked"}, map[string]bool{"p.Linked": true}, allow)
	want := []string{"stale (linked): p.Linked", "stale (not declared): p.Gone"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("check = %q, want %q", got, want)
	}
}
