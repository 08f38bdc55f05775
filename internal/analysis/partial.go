package analysis

import (
	"fmt"
	"sort"
	"strings"

	"iotlan/internal/inspector"
)

// This file holds the mergeable (partial) forms of the crowdsourced-corpus
// analyses: Table 2's entropy/uniqueness aggregation and the §7 mitigation
// sweep. Both analyses are, at bottom, counting — per-household fingerprint
// histograms, identifier-combination populations, distinct product/vendor
// sets — and counts merge. A partial computed over any subset of households
// carries everything the final tables need from that subset; merging the
// partials of a disjoint cover of the corpus yields aggregates identical to
// a single whole-corpus pass, because integer sums are associative and
// commutative, and every float (entropy) is derived only *after* the merge,
// from identical integer counts, with sorted-key summation. Hence: any
// partition — one shard, eight shards, one partial per household — produces
// byte-identical rendered tables.
//
// The partials are also *retractable*: every aggregate is an integer count
// or a refcounted multiset (map[string]int — "distinct products" renders as
// the key count, but each key remembers how many devices contribute it; the
// §7 sweep counts households per fingerprint), and both analyses fold them
// with addCounts and subCounts, so Sub is the exact inverse of Add. Keys are
// deleted the moment their refcount reaches zero, which makes the algebra
// cancellative: folding a household in and retracting it restores the
// previous state *structurally*, not just observationally — a partial built
// by any sequence of Add/Sub calls is identical to one batch-built over the
// surviving households. The serving layer leans on this to keep a live
// merged partial per fleet shard, updated in O(one household) at ingest
// (fold the previous contribution out, the new one in) instead of
// recomputing the shard on read. A refcount underflow means a caller
// retracted a contribution that was never added — a structural invariant
// violation, so Sub panics rather than serving silently wrong aggregates.
//
// The whole-corpus entry points (EntropyTableWith, MitigationTableWith)
// fold the corpus into one partial and render it with Rows, the same call
// the serving layer makes on its merged shards, so there is exactly one
// aggregation code path and the equivalence is structural, not
// aspirational.

// addCounts folds the src multiset into dst.
func addCounts(dst, src map[string]int) {
	for k, n := range src {
		dst[k] += n
	}
}

// subCounts retracts the src multiset from dst, deleting keys at refcount
// zero so a fold-then-retract restores dst structurally. Underflow panics:
// it means src was never folded into dst.
func subCounts(dst, src map[string]int) {
	for k, n := range src {
		switch r := dst[k] - n; {
		case r > 0:
			dst[k] = r
		case r == 0:
			delete(dst, k)
		default:
			panic("analysis: multiset refcount underflow (retract without matching add)")
		}
	}
}

// cloneCounts deep-copies a multiset; a nil one stays nil.
func cloneCounts(src map[string]int) map[string]int {
	if src == nil {
		return nil
	}
	dst := make(map[string]int, len(src))
	for k, n := range src {
		dst[k] = n
	}
	return dst
}

// keyTable makes equal key strings share one allocation. HouseholdPartialOf
// builds both of a household's singleton partials through one table, and a
// multiset keeps the key string it is first given, so the live aggregates
// hold each of a household's distinct values in one allocation, however
// many multisets count it: a household exposing UUIDs alone counts the same
// bytes as its UUID combination's value, its UUID class value and three §7
// regimes' fingerprints. Each value stays its own allocation, so a key that
// outlives its household in the aggregates pins nothing else. A household
// has a few dozen distinct keys at most, so the table is a slice scanned in
// order. A nil table keeps every string as built; the batch builders pass
// nil, since their partials are transient.
type keyTable []string

// of returns the table's string equal to s, entering s if there is none.
func (t *keyTable) of(s string) string {
	if t == nil {
		return s
	}
	for _, k := range *t {
		if k == s {
			return k
		}
	}
	*t = append(*t, s)
	return s
}

// entropyCombo accumulates one identifier-combination row's inputs over a
// household subset. products and vendors are device-refcounted multisets:
// the row reports len() (distinct values), the counts make removal exact.
type entropyCombo struct {
	types             []IdentifierType
	products, vendors map[string]int
	devices           int
	households        int
	// valueCounts maps a household's joined-sorted identifier fingerprint to
	// the number of households in this subset carrying it. Populated only
	// for combinations that expose at least one identifier type.
	valueCounts map[string]int
}

// EntropyPartial is the mergeable, retractable Table 2 contribution of a
// household subset. Build with EntropyPartialOf, combine with Add or
// MergeEntropy, retract with Sub.
type EntropyPartial struct {
	combos map[string]*entropyCombo
	// typeValues counts per-household joined identifier values per class;
	// typeHouseholds counts households exposing each class. Together they
	// determine the per-class Shannon entropy after the merge.
	typeValues     map[IdentifierType]map[string]int
	typeHouseholds map[IdentifierType]int
}

// NewEntropyPartial returns an empty partial — the identity of the Add/Sub
// algebra, and the seed of the serving layer's live per-shard aggregates.
func NewEntropyPartial() *EntropyPartial {
	return &EntropyPartial{
		combos: map[string]*entropyCombo{},
		typeValues: map[IdentifierType]map[string]int{
			IDName: {}, IDUUID: {}, IDMAC: {},
		},
		typeHouseholds: map[IdentifierType]int{},
	}
}

func (p *EntropyPartial) combo(types []IdentifierType) *entropyCombo {
	key := fmt.Sprint(types)
	c, ok := p.combos[key]
	if !ok {
		c = &entropyCombo{
			types:    append([]IdentifierType(nil), types...),
			products: map[string]int{}, vendors: map[string]int{},
			valueCounts: map[string]int{},
		}
		p.combos[key] = c
	}
	return c
}

// Add folds q into p. q is not retained; both partials' counts are summed
// key by key, so Add is associative and commutative up to the rendered rows.
func (p *EntropyPartial) Add(q *EntropyPartial) {
	for key, c := range q.combos {
		mc, ok := p.combos[key]
		if !ok {
			mc = p.combo(c.types)
		}
		addCounts(mc.products, c.products)
		addCounts(mc.vendors, c.vendors)
		mc.devices += c.devices
		mc.households += c.households
		addCounts(mc.valueCounts, c.valueCounts)
	}
	for t, counts := range q.typeValues {
		tv, ok := p.typeValues[t]
		if !ok {
			tv = map[string]int{}
			p.typeValues[t] = tv
		}
		addCounts(tv, counts)
	}
	for t, n := range q.typeHouseholds {
		p.typeHouseholds[t] += n
	}
}

// Sub retracts a previously added q from p, deleting rows and multiset keys
// whose counts reach zero so p ends structurally identical to a partial that
// never saw q. Retracting a contribution that was not added panics — the
// caller's bookkeeping, not the data, is wrong, and the aggregates can no
// longer be trusted.
func (p *EntropyPartial) Sub(q *EntropyPartial) {
	for key, c := range q.combos {
		mc, ok := p.combos[key]
		if !ok {
			panic("analysis: EntropyPartial.Sub of a combination never added")
		}
		subCounts(mc.products, c.products)
		subCounts(mc.vendors, c.vendors)
		mc.devices -= c.devices
		mc.households -= c.households
		subCounts(mc.valueCounts, c.valueCounts)
		if mc.devices < 0 || mc.households < 0 {
			panic("analysis: EntropyPartial.Sub count underflow")
		}
		if mc.devices == 0 && mc.households == 0 {
			delete(p.combos, key)
		}
	}
	for t, counts := range q.typeValues {
		subCounts(p.typeValues[t], counts)
	}
	for t, n := range q.typeHouseholds {
		r := p.typeHouseholds[t] - n
		switch {
		case r > 0:
			p.typeHouseholds[t] = r
		case r == 0:
			delete(p.typeHouseholds, t)
		default:
			panic("analysis: EntropyPartial.Sub type-household underflow")
		}
	}
}

// Clone deep-copies p: the copy shares no mutable state with p, so later
// Add or Sub calls on either leave the other unchanged.
func (p *EntropyPartial) Clone() *EntropyPartial {
	c := NewEntropyPartial()
	for key, combo := range p.combos {
		c.combos[key] = &entropyCombo{
			types:    append([]IdentifierType(nil), combo.types...),
			products: cloneCounts(combo.products), vendors: cloneCounts(combo.vendors),
			devices: combo.devices, households: combo.households,
			valueCounts: cloneCounts(combo.valueCounts),
		}
	}
	for t, counts := range p.typeValues {
		c.typeValues[t] = cloneCounts(counts)
	}
	for t, n := range p.typeHouseholds {
		c.typeHouseholds[t] = n
	}
	return c
}

// EntropyPartialOf aggregates Table 2's inputs over a household subset,
// reusing a precomputed identifier extraction (nil extracts inline).
// Households must be whole — a household's devices may not be split across
// subsets — which the serving layer guarantees by sharding on household ID.
func EntropyPartialOf(hhs []*inspector.Household, ids *ExtractedIdentifiers) *EntropyPartial {
	return entropyPartialOf(hhs, ids, nil)
}

// entropyPartialOf is EntropyPartialOf with every multiset key taken from
// keys.
func entropyPartialOf(hhs []*inspector.Household, ids *ExtractedIdentifiers, keys *keyTable) *EntropyPartial {
	p := NewEntropyPartial()
	for _, h := range hhs {
		// Per-household accumulation: identifier values per combination and
		// per class, folded into counts once the household is complete.
		comboValues := map[*entropyCombo][]string{}
		perType := map[IdentifierType][]string{}
		for _, d := range h.Devices {
			devIDs := ids.Of(d)
			var types []IdentifierType
			var values []string
			for _, t := range []IdentifierType{IDName, IDUUID, IDMAC} {
				if len(devIDs[t]) > 0 {
					types = append(types, t)
					values = append(values, devIDs[t]...)
				}
			}
			c := p.combo(types)
			c.products[keys.of(d.Product.Name())]++
			c.vendors[keys.of(d.Product.Vendor)]++
			c.devices++
			comboValues[c] = append(comboValues[c], values...)
			for t, vals := range devIDs {
				perType[t] = append(perType[t], vals...)
			}
		}
		for c, vals := range comboValues {
			c.households++
			if len(c.types) > 0 {
				sort.Strings(vals)
				c.valueCounts[keys.of(strings.Join(vals, "|"))]++
			}
		}
		for t, vals := range perType {
			sort.Strings(vals)
			p.typeValues[t][keys.of(strings.Join(vals, "|"))]++
			p.typeHouseholds[t]++
		}
	}
	return p
}

// Rows derives the final Table 2 rows from the partial's counts. Entropy and
// uniqueness come from the merged integers only, so any partition of the
// same corpus — and any Add/Sub history reaching the same counts — yields
// byte-identical rows.
func (p *EntropyPartial) Rows() []EntropyRow {
	typeEntropy := map[IdentifierType]float64{}
	for t, counts := range p.typeValues {
		typeEntropy[t] = shannon(counts, p.typeHouseholds[t])
	}

	var rows []EntropyRow
	for _, c := range p.combos {
		row := EntropyRow{
			Types:    c.types,
			Products: len(c.products), Vendors: len(c.vendors),
			Devices: c.devices, Households: c.households,
		}
		if len(c.types) > 0 {
			unique := 0
			for _, n := range c.valueCounts {
				if n == 1 {
					unique++
				}
			}
			row.UniqueHouseholds = unique
			if row.Households > 0 {
				row.UniquePct = 100 * float64(unique) / float64(row.Households)
			}
			for _, t := range c.types {
				row.EntropyBits += typeEntropy[t]
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if len(rows[i].Types) != len(rows[j].Types) {
			return len(rows[i].Types) < len(rows[j].Types)
		}
		return rows[i].Key() < rows[j].Key()
	})
	return rows
}

// MergeEntropy combines partials from a disjoint household cover into the
// final Table 2 rows — a fold through Add, so the merge and the incremental
// maintenance share one aggregation path.
func MergeEntropy(parts []*EntropyPartial) []EntropyRow {
	m := NewEntropyPartial()
	for _, p := range parts {
		if p == nil {
			continue
		}
		m.Add(p)
	}
	return m.Rows()
}

// mitigationRegimes is the §7 sweep order — shared by the batch table, the
// partial, and the merge so rows always line up.
var mitigationRegimes = []Mitigation{
	0,
	MitigateStripNames,
	MitigateRedactMACs,
	MitigateRandomizeUUIDs,
	MitigateRandomizeUUIDs | MitigateRedactMACs,
	MitigateAll,
}

// regimePartial is one mitigation regime's contribution from a household
// subset, as three fingerprint multisets: s1[fp], s2[fp] and both[fp] count
// the households whose session-1, session-2, or both-session fingerprint is
// fp. fp re-identifies its both[fp] households exactly when s1[fp] == 1,
// that is when no other household claimed it in session 1.
//
// Only MitigateRandomizeUUIDs makes a fingerprint depend on its session
// (fingerprint, mitigate.go). Under every other regime a household's two
// fingerprints are one string, so the three multisets are equal key for key:
// such a session-invariant regime keeps s2 alone, with s1 and both nil, and
// sessions hands s2 out in their place. Its rows come out as they would from
// three copies: households is s2's sum, a key re-identifies exactly when its
// count is 1, and the entropy is s2's.
type regimePartial struct {
	s1, s2, both map[string]int
}

// sessions returns the regime's session-1, session-2 and both-session
// multisets.
func (r regimePartial) sessions() (s1, s2, both map[string]int) {
	if r.s1 == nil {
		return r.s2, r.s2, r.s2
	}
	return r.s1, r.s2, r.both
}

// MitigationPartial is the mergeable, retractable §7 sweep contribution of
// a household subset, one regimePartial per mitigationRegimes entry.
//
// The counts carry no household identities, so they are exact only when a
// merge folds a disjoint household cover with one record per household ID.
// Every caller meets this: the serving layer keys fleet state by household
// ID and retracts a record before folding in its replacement, and a
// generated corpus has unique IDs.
type MitigationPartial struct {
	regimes []regimePartial
}

// NewMitigationPartial returns an empty partial — the identity of the
// Add/Sub algebra, and the seed of the serving layer's live aggregates.
func NewMitigationPartial() *MitigationPartial {
	p := &MitigationPartial{regimes: make([]regimePartial, len(mitigationRegimes))}
	for i, m := range mitigationRegimes {
		p.regimes[i].s2 = map[string]int{}
		if m&MitigateRandomizeUUIDs != 0 {
			p.regimes[i].s1, p.regimes[i].both = map[string]int{}, map[string]int{}
		}
	}
	return p
}

// MitigationPartialOf computes every regime's fingerprints over a household
// subset, both observation sessions' where the regime randomises UUIDs,
// reusing a precomputed identifier extraction (nil extracts inline).
func MitigationPartialOf(hhs []*inspector.Household, ids *ExtractedIdentifiers) *MitigationPartial {
	return mitigationPartialOf(hhs, ids, nil)
}

// mitigationPartialOf is MitigationPartialOf with every fingerprint taken
// from keys.
func mitigationPartialOf(hhs []*inspector.Household, ids *ExtractedIdentifiers, keys *keyTable) *MitigationPartial {
	p := NewMitigationPartial()
	for ri, m := range mitigationRegimes {
		rp := p.regimes[ri]
		for _, h := range hhs {
			fp1 := keys.of(fingerprint(h, ids, m, 1))
			fp2 := fp1 // session-invariant
			if rp.s1 != nil {
				fp2 = keys.of(fingerprint(h, ids, m, 2))
				if fp1 != "" {
					rp.s1[fp1]++
				}
				if fp2 != "" && fp2 == fp1 {
					rp.both[fp2]++
				}
			}
			if fp2 != "" {
				rp.s2[fp2]++
			}
		}
	}
	return p
}

// Add folds q into p.
func (p *MitigationPartial) Add(q *MitigationPartial) {
	for ri, qr := range q.regimes {
		pr := p.regimes[ri]
		addCounts(pr.s1, qr.s1)
		addCounts(pr.s2, qr.s2)
		addCounts(pr.both, qr.both)
	}
}

// Sub retracts a previously added q from p, with the same delete-at-zero /
// panic-on-underflow contract as EntropyPartial.Sub.
func (p *MitigationPartial) Sub(q *MitigationPartial) {
	for ri, qr := range q.regimes {
		pr := p.regimes[ri]
		subCounts(pr.s1, qr.s1)
		subCounts(pr.s2, qr.s2)
		subCounts(pr.both, qr.both)
	}
}

// Clone deep-copies p, with the same independence as EntropyPartial.Clone.
func (p *MitigationPartial) Clone() *MitigationPartial {
	c := &MitigationPartial{regimes: make([]regimePartial, len(p.regimes))}
	for ri, r := range p.regimes {
		c.regimes[ri] = regimePartial{s1: cloneCounts(r.s1), s2: cloneCounts(r.s2), both: cloneCounts(r.both)}
	}
	return c
}

// Rows derives the final sweep rows, in mitigationRegimes order. Each
// regime's session-2 multiset is both the household count and the
// anonymity-set histogram whose entropy the row reports.
func (p *MitigationPartial) Rows() []ReidentificationResult {
	out := make([]ReidentificationResult, len(mitigationRegimes))
	for ri, m := range mitigationRegimes {
		s1, s2, both := p.regimes[ri].sessions()
		res := ReidentificationResult{Mitigation: m}
		for _, n := range s2 {
			res.Households += n
		}
		for fp, n := range both {
			if s1[fp] == 1 {
				res.Reidentified += n
			}
		}
		if res.Households > 0 {
			res.ReidRate = float64(res.Reidentified) / float64(res.Households)
		}
		res.EntropyBits = shannon(s2, res.Households)
		out[ri] = res
	}
	return out
}

// MergeMitigations combines partials from a disjoint household cover into
// the final sweep rows — a fold through Add, sharing the incremental path.
func MergeMitigations(parts []*MitigationPartial) []ReidentificationResult {
	m := NewMitigationPartial()
	for _, p := range parts {
		if p == nil {
			continue
		}
		m.Add(p)
	}
	return m.Rows()
}

// HouseholdPartial bundles one household's singleton contributions to every
// sharded artifact — the unit the serving layer folds in at ingest and
// retracts when the household re-uploads.
type HouseholdPartial struct {
	Entropy     *EntropyPartial
	Mitigations *MitigationPartial
}

// HouseholdPartialOf builds a household's singleton partials with one shared
// identifier extraction (each Of call would otherwise re-extract the devices
// — the mitigation sweep alone fingerprints 9 times) and one keyTable, so
// the live aggregates they are folded into hold each of the household's
// distinct key strings in one allocation.
func HouseholdPartialOf(h *inspector.Household) *HouseholdPartial {
	ids := &ExtractedIdentifiers{byDevice: make(map[*inspector.Device]identifierSet, len(h.Devices))}
	for _, d := range h.Devices {
		ids.byDevice[d] = extractIdentifiers(d)
	}
	one := []*inspector.Household{h}
	keys := make(keyTable, 0, 16)
	return &HouseholdPartial{
		Entropy:     entropyPartialOf(one, ids, &keys),
		Mitigations: mitigationPartialOf(one, ids, &keys),
	}
}
