package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"iotlan/internal/engine"
	"iotlan/internal/inspector"
)

// IdentifierType enumerates Table 2's identifier classes.
type IdentifierType int

// Identifier classes, in Table 2 order.
const (
	IDName IdentifierType = iota
	IDUUID
	IDMAC
)

// String renders the class name.
func (t IdentifierType) String() string {
	return [...]string{"name", "UUID", "MAC"}[t]
}

// EntropyRow is one Table 2 row: devices exposing a particular combination
// of identifier types.
type EntropyRow struct {
	// Types is the exposed identifier combination (empty = none).
	Types []IdentifierType
	// Products / Vendors / Devices / Households count the population.
	Products, Vendors, Devices, Households int
	// UniqueHouseholds counts households whose identifier combination is
	// unique across the dataset; UniquePct is the Table 2 percentage.
	UniqueHouseholds int
	UniquePct        float64
	// EntropyBits is the Shannon entropy of the identifier-value
	// distribution over households.
	EntropyBits float64
}

// Key renders the combination label ("UUID, MAC").
func (r EntropyRow) Key() string {
	if len(r.Types) == 0 {
		return "none"
	}
	parts := make([]string, len(r.Types))
	for i, t := range r.Types {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// identifierSet is one device's extracted identifiers by class.
type identifierSet = map[IdentifierType][]string

// ExtractedIdentifiers holds per-device identifier extractions (§6.3's
// regex passes, the hot loop of Table 2 and the §7 sweep) computed a single
// time — optionally sharded across workers — and shared read-only by every
// consumer.
type ExtractedIdentifiers struct {
	byDevice map[*inspector.Device]identifierSet
}

// ExtractIdentifiers runs the extraction over the whole corpus, sharding
// households across workers (values < 1 mean one per CPU). Extraction is a
// pure per-device function, so any worker count yields identical results.
func ExtractIdentifiers(ds *inspector.Dataset, workers int) *ExtractedIdentifiers {
	perHousehold := engine.Map(workers, len(ds.Households), func(i int) []identifierSet {
		hh := ds.Households[i]
		out := make([]identifierSet, len(hh.Devices))
		for j, d := range hh.Devices {
			out[j] = extractIdentifiers(d)
		}
		return out
	})
	byDevice := make(map[*inspector.Device]identifierSet, len(ds.Households)*3)
	for i, hh := range ds.Households {
		for j, d := range hh.Devices {
			byDevice[d] = perHousehold[i][j]
		}
	}
	return &ExtractedIdentifiers{byDevice: byDevice}
}

// Of returns a device's identifiers. A nil receiver (or an unknown device)
// falls back to direct extraction, so call sites need no nil checks.
func (e *ExtractedIdentifiers) Of(d *inspector.Device) identifierSet {
	if e != nil {
		if ids, ok := e.byDevice[d]; ok {
			return ids
		}
	}
	return extractIdentifiers(d)
}

// extractIdentifiers pulls names, UUIDs and OUI-validated MACs from a
// device's discovery payloads — §6.3's three regex classes.
func extractIdentifiers(d *inspector.Device) map[IdentifierType][]string {
	out := map[IdentifierType][]string{}
	for _, payload := range append(append([]string{}, d.MDNS...), d.SSDP...) {
		// Names: an English word, apostrophe-s, space, word.
		for _, n := range findPossessives(payload) {
			out[IDName] = append(out[IDName], n)
		}
		for _, u := range findUUIDs(payload) {
			out[IDUUID] = append(out[IDUUID], u)
		}
		for _, m := range findMACs(payload) {
			// OUI validation: keep only MACs whose OUI matches the one IoT
			// Inspector recorded for the device (§6.3's false-positive
			// filter).
			if strings.HasPrefix(strings.ToLower(m), strings.ToLower(d.OUI.String())) {
				out[IDMAC] = append(out[IDMAC], strings.ToLower(m))
			}
		}
	}
	return out
}

// findPossessives matches "Word's Word" (the paper's name regex).
func findPossessives(s string) []string {
	var out []string
	for i := 0; i+2 < len(s); i++ {
		if s[i] == '\'' && i+2 < len(s) && s[i+1] == 's' && s[i+2] == ' ' {
			// Walk back over the preceding word.
			j := i
			for j > 0 && isLetter(s[j-1]) {
				j--
			}
			// And forward over the following word.
			k := i + 3
			for k < len(s) && isLetter(s[k]) {
				k++
			}
			if j < i && k > i+3 {
				out = append(out, s[j:k])
			}
		}
	}
	return out
}

func isLetter(b byte) bool { return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' }

// EntropyTable computes Table 2 over a crowdsourced dataset, extracting
// identifiers inline. Equivalent to EntropyTableWith(ds, nil).
func EntropyTable(ds *inspector.Dataset) []EntropyRow {
	return EntropyTableWith(ds, nil)
}

// EntropyTableWith computes Table 2 reusing a precomputed identifier
// extraction (nil extracts inline). It folds the corpus into one partial
// and renders it with Rows — the same aggregation path the sharded serving
// layer uses — so a whole-corpus pass and a merged partition are
// byte-identical by construction (see partial.go). Per-identifier-type
// entropy over all households exposing that type lands in the combination
// rows as the sum of their types' entropies (the paper's Ent column is
// additive: 12.3 ≈ 3.4 + 8.9).
func EntropyTableWith(ds *inspector.Dataset, ids *ExtractedIdentifiers) []EntropyRow {
	return EntropyPartialOf(ds.Households, ids).Rows()
}

// shannon computes H = Σ p·log2(1/p) over the fingerprint distribution.
// Terms are summed in sorted key order: floating-point addition is not
// associative, so map-order summation would make the last ULP vary between
// runs — breaking the engine's byte-identical-output contract.
func shannon(counts map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := 0.0
	for _, k := range keys {
		p := float64(counts[k]) / float64(total)
		h -= float64(p * math.Log2(p)) // rounded product: never fused
	}
	return h
}

// RenderEntropyTable prints Table 2.
func RenderEntropyTable(rows []EntropyRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-2s %5s %5s %7s %7s  %-18s %18s %6s\n",
		"#", "Pdt", "Vdr", "Dev", "ΣHse", "Identifier(s)", "Hse (unique%)", "Ent")
	for _, r := range rows {
		uniq := "N/A"
		if len(r.Types) > 0 {
			uniq = fmt.Sprintf("%d (%.1f%%)", r.Households, r.UniquePct)
		}
		ent := "N/A"
		if len(r.Types) > 0 {
			ent = fmt.Sprintf("%.1f", r.EntropyBits)
		}
		fmt.Fprintf(&sb, "%-2d %5d %5d %7d %7d  %-18s %18s %6s\n",
			len(r.Types), r.Products, r.Vendors, r.Devices, r.Households, r.Key(), uniq, ent)
	}
	return sb.String()
}
