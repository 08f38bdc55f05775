package analysis

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"iotlan/internal/engine"
	"iotlan/internal/inspector"
)

// partitionByHash splits households into n buckets by the same hash the
// serving layer uses for its fleet shards.
func partitionByHash(hhs []*inspector.Household, n int) [][]*inspector.Household {
	out := make([][]*inspector.Household, n)
	for _, h := range hhs {
		s := engine.ShardOf(h.ID, n)
		out[s] = append(out[s], h)
	}
	return out
}

// TestEntropyPartialMergeInvariant: merging Table 2 partials from any
// partition of the corpus — hash shards of several widths, one partial per
// household, or a lopsided split — reproduces the whole-corpus rows
// exactly, including the floating-point entropy bits and the rendered
// table.
func TestEntropyPartialMergeInvariant(t *testing.T) {
	ds := inspector.Generate(11, 160)
	want := EntropyTableWith(ds, nil)
	wantRendered := RenderEntropyTable(want)

	partitions := map[string][][]*inspector.Household{
		"hash2":        partitionByHash(ds.Households, 2),
		"hash8":        partitionByHash(ds.Households, 8),
		"hash64":       partitionByHash(ds.Households, 64),
		"perHousehold": nil,
		"lopsided":     {ds.Households[:1], ds.Households[1:]},
	}
	for _, h := range ds.Households {
		partitions["perHousehold"] = append(partitions["perHousehold"], []*inspector.Household{h})
	}

	for name, parts := range partitions {
		var ps []*EntropyPartial
		for _, sub := range parts {
			ps = append(ps, EntropyPartialOf(sub, nil))
		}
		got := MergeEntropy(ps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged rows differ from batch:\n%v\nvs\n%v", name, got, want)
		}
		if r := RenderEntropyTable(got); r != wantRendered {
			t.Fatalf("%s: rendered table differs:\n%s\nvs\n%s", name, r, wantRendered)
		}
	}

	// Merging with nil partials (a shard that has no cached contribution
	// yet) must be a no-op, and an empty-subset partial must contribute
	// nothing.
	got := MergeEntropy([]*EntropyPartial{
		nil,
		EntropyPartialOf(ds.Households, nil),
		EntropyPartialOf(nil, nil),
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil/empty partials changed the merge")
	}
}

// TestMitigationPartialMergeInvariant: the §7 sweep is partition-invariant
// too — cross-shard re-identification works because session-1 fingerprint
// claims merge by count (a fingerprint duplicated *across* shards must stop
// re-identifying, exactly as a within-shard duplicate does).
func TestMitigationPartialMergeInvariant(t *testing.T) {
	ds := inspector.Generate(12, 140)
	want := MitigationTableWith(ds, nil)
	wantRendered := RenderMitigationTable(want)

	for _, n := range []int{2, 8, 32} {
		var ps []*MitigationPartial
		for _, sub := range partitionByHash(ds.Households, n) {
			ps = append(ps, MitigationPartialOf(sub, nil))
		}
		got := MergeMitigations(ps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: merged sweep differs from batch:\n%v\nvs\n%v", n, got, want)
		}
		if r := RenderMitigationTable(got); r != wantRendered {
			t.Fatalf("shards=%d: rendered sweep differs", n)
		}
	}

	// The cross-shard duplicate case explicitly: two households engineered
	// to share a fingerprint, placed in different partials. Unmitigated
	// re-identification must treat the pair as ambiguous (no credit), which
	// only happens if session-1 claim counts survive the merge.
	a := ds.Households[0]
	clone := &inspector.Household{ID: "cloneof0", Devices: a.Devices}
	withClone := append(append([]*inspector.Household{}, ds.Households...), clone)
	batch := MergeMitigations([]*MitigationPartial{MitigationPartialOf(withClone, nil)})
	split := MergeMitigations([]*MitigationPartial{
		MitigationPartialOf(withClone[:1], nil), // household 0 alone
		MitigationPartialOf(withClone[1:], nil), // clone in the other shard
	})
	if !reflect.DeepEqual(batch, split) {
		t.Fatalf("cross-shard duplicate handled differently:\n%v\nvs\n%v", batch, split)
	}
	if batch[0].Reidentified >= want[0].Reidentified+1 {
		t.Fatalf("duplicated fingerprint still re-identified: %d (baseline %d)",
			batch[0].Reidentified, want[0].Reidentified)
	}
}

// TestPartialBatchedFold: folding partials batch-by-batch (the streaming
// offline gate in cmd/iotload) equals one whole-corpus pass.
func TestPartialBatchedFold(t *testing.T) {
	const n, batch = 100, 17
	ds := inspector.Generate(13, n)
	var ps []*EntropyPartial
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		ps = append(ps, EntropyPartialOf(ds.Households[lo:hi], nil))
	}
	if got, want := fmt.Sprint(MergeEntropy(ps)), fmt.Sprint(EntropyTableWith(ds, nil)); got != want {
		t.Fatalf("batched fold differs:\n%s\nvs\n%s", got, want)
	}
}

// TestPartialRetraction: Sub is the exact inverse of Add — fold every
// household's singleton partial into a live aggregate, retract a subset, and
// the survivor must equal a batch partial over the remaining households
// *structurally* (DeepEqual of internals, thanks to delete-at-zero
// refcounts), not just in rendered rows.
func TestPartialRetraction(t *testing.T) {
	ds := inspector.Generate(21, 60)
	liveE := NewEntropyPartial()
	liveM := NewMitigationPartial()
	contribs := make([]*HouseholdPartial, len(ds.Households))
	for i, h := range ds.Households {
		contribs[i] = HouseholdPartialOf(h)
		liveE.Add(contribs[i].Entropy)
		liveM.Add(contribs[i].Mitigations)
	}

	// Retract every third household.
	var survivors []*inspector.Household
	for i, h := range ds.Households {
		if i%3 == 0 {
			liveE.Sub(contribs[i].Entropy)
			liveM.Sub(contribs[i].Mitigations)
			continue
		}
		survivors = append(survivors, h)
	}
	wantE := EntropyPartialOf(survivors, nil)
	wantM := MitigationPartialOf(survivors, nil)
	if !reflect.DeepEqual(liveE, wantE) {
		t.Fatal("entropy partial after retraction differs structurally from batch over survivors")
	}
	if !reflect.DeepEqual(liveM, wantM) {
		t.Fatal("mitigation partial after retraction differs structurally from batch over survivors")
	}
	if got, want := fmt.Sprint(MergeEntropy([]*EntropyPartial{liveE})), fmt.Sprint(MergeEntropy([]*EntropyPartial{wantE})); got != want {
		t.Fatalf("rendered entropy rows differ:\n%s\nvs\n%s", got, want)
	}
	if got, want := fmt.Sprint(MergeMitigations([]*MitigationPartial{liveM})), fmt.Sprint(MergeMitigations([]*MitigationPartial{wantM})); got != want {
		t.Fatalf("rendered mitigation rows differ:\n%s\nvs\n%s", got, want)
	}

	// Retracting everything restores the empty partial exactly.
	for i, h := range ds.Households {
		if i%3 != 0 {
			_ = h
			liveE.Sub(contribs[i].Entropy)
			liveM.Sub(contribs[i].Mitigations)
		}
	}
	if !reflect.DeepEqual(liveE, NewEntropyPartial()) {
		t.Fatal("entropy partial not structurally empty after retracting everything")
	}
	if !reflect.DeepEqual(liveM, NewMitigationPartial()) {
		t.Fatal("mitigation partial not structurally empty after retracting everything")
	}
}

// TestPartialUpdate: an in-place update (retract the old contribution, fold
// the new one) equals a batch pass over the updated corpus — the exact
// operation the serving layer performs per re-upload.
func TestPartialUpdate(t *testing.T) {
	ds := inspector.Generate(22, 50)
	alt := inspector.Generate(23, 50) // replacement contents, same corpus size
	live := NewEntropyPartial()
	liveM := NewMitigationPartial()
	for _, h := range ds.Households {
		c := HouseholdPartialOf(h)
		live.Add(c.Entropy)
		liveM.Add(c.Mitigations)
	}

	// Replace households 5 and 17 with different device sets under the same
	// IDs — the "household uploads twice with different contents" case.
	updated := append([]*inspector.Household{}, ds.Households...)
	for _, i := range []int{5, 17} {
		repl := &inspector.Household{ID: ds.Households[i].ID, Devices: alt.Households[i].Devices}
		old := HouseholdPartialOf(ds.Households[i])
		neu := HouseholdPartialOf(repl)
		live.Sub(old.Entropy)
		live.Add(neu.Entropy)
		liveM.Sub(old.Mitigations)
		liveM.Add(neu.Mitigations)
		updated[i] = repl
	}
	if !reflect.DeepEqual(live, EntropyPartialOf(updated, nil)) {
		t.Fatal("entropy partial after update differs structurally from batch over updated corpus")
	}
	if !reflect.DeepEqual(liveM, MitigationPartialOf(updated, nil)) {
		t.Fatal("mitigation partial after update differs structurally from batch over updated corpus")
	}
}

// TestPartialSubUnderflowPanics: retracting a contribution that was never
// added must panic loudly instead of serving silently wrong aggregates.
func TestPartialSubUnderflowPanics(t *testing.T) {
	ds := inspector.Generate(24, 2)
	a := HouseholdPartialOf(ds.Households[0])
	b := HouseholdPartialOf(ds.Households[1])
	live := NewEntropyPartial()
	live.Add(a.Entropy)
	defer func() {
		if recover() == nil {
			t.Fatal("Sub of a never-added contribution did not panic")
		}
	}()
	live.Sub(b.Entropy)
}

// TestPartialCloneIndependence: a clone shares no mutable state with its
// source — mutating the original must not leak into the copy.
func TestPartialCloneIndependence(t *testing.T) {
	ds := inspector.Generate(25, 20)
	live := NewEntropyPartial()
	liveM := NewMitigationPartial()
	for _, h := range ds.Households {
		c := HouseholdPartialOf(h)
		live.Add(c.Entropy)
		liveM.Add(c.Mitigations)
	}
	cloneE, cloneM := live.Clone(), liveM.Clone()
	wantE := fmt.Sprint(MergeEntropy([]*EntropyPartial{cloneE}))
	wantM := fmt.Sprint(MergeMitigations([]*MitigationPartial{cloneM}))
	c := HouseholdPartialOf(ds.Households[0])
	live.Sub(c.Entropy)
	liveM.Sub(c.Mitigations)
	if got := fmt.Sprint(MergeEntropy([]*EntropyPartial{cloneE})); got != wantE {
		t.Fatal("mutating the source changed the entropy clone")
	}
	if got := fmt.Sprint(MergeMitigations([]*MitigationPartial{cloneM})); got != wantM {
		t.Fatal("mutating the source changed the mitigation clone")
	}
	if !reflect.DeepEqual(cloneE, EntropyPartialOf(ds.Households, nil)) {
		t.Fatal("entropy clone differs structurally from batch")
	}
}

// TestHouseholdPartialSharesKeys: within one household's singleton
// partials, each distinct key value is one allocation however many
// multisets count it, and a session-invariant §7 regime (one that does not
// randomise UUIDs) keeps one multiset where a randomised one keeps three.
func TestHouseholdPartialSharesKeys(t *testing.T) {
	var split, shared, notOne int
	for _, h := range inspector.Generate(26, 300).Households {
		c := HouseholdPartialOf(h)
		var sets []map[string]int
		for _, combo := range c.Entropy.combos {
			sets = append(sets, combo.products, combo.vendors, combo.valueCounts)
		}
		for _, tv := range c.Entropy.typeValues {
			sets = append(sets, tv)
		}
		for ri, r := range c.Mitigations.regimes {
			randomised := mitigationRegimes[ri]&MitigateRandomizeUUIDs != 0
			if r.s2 == nil || (r.s1 != nil) != randomised || (r.both != nil) != randomised {
				notOne++
			}
			sets = append(sets, r.s1, r.s2, r.both)
		}
		data := map[string]*byte{}
		sets1 := map[string]int{}
		for _, set := range sets {
			for k := range set {
				if k == "" {
					continue
				}
				p := unsafe.StringData(k)
				if q, ok := data[k]; ok && q != p {
					split++
				}
				data[k] = p
				if sets1[k]++; sets1[k] == 2 {
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no key value is counted by two multisets of one household; the corpus does not exercise sharing")
	}
	if split > 0 {
		t.Errorf("%d key occurrences sit in another allocation than an equal key of the same household (%d values counted by several multisets)", split, shared)
	}
	if notOne > 0 {
		t.Errorf("%d regime partials keep other multisets than s2 alone (session-invariant) or s1, s2 and both (randomised)", notOne)
	}
}

// BenchmarkHouseholdPartialOf is the per-household extraction the serving
// layer's fold pays for every changed record: one shared identifier
// extraction feeding both singleton partials.
func BenchmarkHouseholdPartialOf(b *testing.B) {
	h := inspector.Generate(1, 1).Households[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		partialSink = HouseholdPartialOf(h)
	}
}

var partialSink *HouseholdPartial

// BenchmarkPartialAddSub is the live fold's aggregate arithmetic for one
// re-upload: a household's singleton partial added to a 2,000-household
// aggregate with Add and retracted again with Sub.
func BenchmarkPartialAddSub(b *testing.B) {
	ds := inspector.Generate(1, 2001)
	fleet := ds.Households[:2000]
	ids := ExtractIdentifiers(&inspector.Dataset{Households: fleet}, 1)
	one := HouseholdPartialOf(ds.Households[2000])
	b.Run("table2", func(b *testing.B) {
		agg := EntropyPartialOf(fleet, ids)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg.Add(one.Entropy)
			agg.Sub(one.Entropy)
		}
	})
	b.Run("mitigations", func(b *testing.B) {
		agg := MitigationPartialOf(fleet, ids)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg.Add(one.Mitigations)
			agg.Sub(one.Mitigations)
		}
	})
}
