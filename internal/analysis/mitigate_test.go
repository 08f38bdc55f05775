package analysis

import (
	"reflect"
	"testing"

	"iotlan/internal/inspector"
)

// evaluateMitigation is the oracle for the §7 sweep: a batch evaluation of
// one regime, written independently of MitigationPartial. It simulates two
// observation sessions of the same households and counts a session-2
// household as re-identified when its fingerprint was claimed in session 1
// by that household alone. ids may be nil (identifiers are then extracted
// inline).
func evaluateMitigation(ds *inspector.Dataset, ids *ExtractedIdentifiers, m Mitigation) ReidentificationResult {
	session1 := map[string]string{} // fingerprint → household (unique only)
	dup1 := map[string]bool{}
	for _, h := range ds.Households {
		fp := fingerprint(h, ids, m, 1)
		if fp == "" {
			continue
		}
		if _, seen := session1[fp]; seen {
			dup1[fp] = true
		}
		session1[fp] = h.ID
	}
	res := ReidentificationResult{Mitigation: m}
	counts := map[string]int{}
	for _, h := range ds.Households {
		fp2 := fingerprint(h, ids, m, 2)
		if fp2 == "" {
			continue
		}
		res.Households++
		counts[fp2]++
		if owner, ok := session1[fp2]; ok && !dup1[fp2] && owner == h.ID {
			res.Reidentified++
		}
	}
	if res.Households > 0 {
		res.ReidRate = float64(res.Reidentified) / float64(res.Households)
	}
	res.EntropyBits = shannon(counts, res.Households)
	return res
}

// TestMitigationTableMatchesOracle: every MitigationTableWith row — computed by
// merging mitigation partials, the path the served artifact takes — equals
// the batch oracle's evaluation of its regime, entropy floats included.
func TestMitigationTableMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 1337} {
		for _, households := range []int{1, 5, 50, 400} {
			ds := inspector.Generate(seed, households)
			rows := MitigationTableWith(ds, nil)
			if len(rows) != len(mitigationRegimes) {
				t.Fatalf("seed %d, %d households: %d rows, want %d", seed, households, len(rows), len(mitigationRegimes))
			}
			for i, m := range mitigationRegimes {
				if want := evaluateMitigation(ds, nil, m); !reflect.DeepEqual(rows[i], want) {
					t.Fatalf("seed %d, %d households, %s: table row %+v, oracle %+v",
						seed, households, MitigationName(m), rows[i], want)
				}
			}
		}
	}
}

func TestMitigationSweepShape(t *testing.T) {
	ds := inspector.Generate(4, 1500)
	rows := MitigationTableWith(ds, nil)
	byName := map[string]ReidentificationResult{}
	for _, r := range rows {
		byName[MitigationName(r.Mitigation)] = r
	}

	none := byName["none"]
	if none.Households < 400 {
		t.Fatalf("baseline households: %d", none.Households)
	}
	// Stable identifiers re-identify nearly every household across sessions.
	if none.ReidRate < 0.9 {
		t.Fatalf("baseline reid rate %.2f, want ≥0.9", none.ReidRate)
	}

	// Single mitigations help but leave residual linkability.
	randUUID := byName["randomize-uuids"]
	if randUUID.ReidRate >= none.ReidRate {
		t.Errorf("UUID randomisation did not reduce reid rate: %.2f", randUUID.ReidRate)
	}

	// The full stack collapses cross-session tracking.
	all := byName["strip-names+randomize-uuids+redact-macs"]
	if all.ReidRate > 0.02 {
		t.Errorf("full mitigation reid rate %.3f, want ≈0", all.ReidRate)
	}

	if RenderMitigationTable(rows) == "" {
		t.Error("empty render")
	}
}

func TestMitigationMonotonic(t *testing.T) {
	// Coarsening fingerprints merges values but never splits them, so the
	// absolute re-identified count is monotone non-increasing as mitigations
	// stack. (The *rate* is not: dropping an identifier class also shrinks
	// the denominator of households with non-empty fingerprints.)
	ds := inspector.Generate(4, 800)
	none := evaluateMitigation(ds, nil, 0)
	partial := evaluateMitigation(ds, nil, MitigateRedactMACs)
	full := evaluateMitigation(ds, nil, MitigateAll)
	if !(full.Reidentified <= partial.Reidentified && partial.Reidentified <= none.Reidentified) {
		t.Fatalf("reidentified counts not monotone: none=%d partial=%d full=%d",
			none.Reidentified, partial.Reidentified, full.Reidentified)
	}
	if full.ReidRate > 0.02 {
		t.Fatalf("full mitigation reid rate %.3f, want ≈0", full.ReidRate)
	}
}

func TestMitigationCachedIdentifiersEquivalent(t *testing.T) {
	ds := inspector.Generate(4, 300)
	ids := ExtractIdentifiers(ds, 4)
	inline := MitigationTableWith(ds, nil)
	cached := MitigationTableWith(ds, ids)
	if len(inline) != len(cached) {
		t.Fatalf("row counts differ: %d vs %d", len(inline), len(cached))
	}
	for i := range inline {
		if inline[i] != cached[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, inline[i], cached[i])
		}
	}
}

func TestMitigationNames(t *testing.T) {
	if MitigationName(0) != "none" {
		t.Fatal("zero mitigation name")
	}
	if MitigationName(MitigateAll) != "strip-names+randomize-uuids+redact-macs" {
		t.Fatalf("full name: %q", MitigationName(MitigateAll))
	}
}

func TestRandomizedUUIDStableWithinSession(t *testing.T) {
	ds := inspector.Generate(4, 50)
	h := ds.Households[0]
	a := fingerprint(h, nil, MitigateRandomizeUUIDs, 1)
	b := fingerprint(h, nil, MitigateRandomizeUUIDs, 1)
	if a != b {
		t.Fatal("fingerprint unstable within one session")
	}
	c := fingerprint(h, nil, MitigateRandomizeUUIDs, 2)
	if h.Devices[0].Product.ExposesUUID && a == c && a != "" {
		// Only differs when a UUID is actually present.
		hasUUID := false
		for _, d := range h.Devices {
			if d.Product.ExposesUUID {
				hasUUID = true
			}
		}
		if hasUUID {
			t.Fatal("fingerprint identical across sessions despite randomisation")
		}
	}
}
