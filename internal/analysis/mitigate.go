package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"iotlan/internal/inspector"
)

// Mitigation is one of the §7 countermeasures: data-exposure minimisation
// and identifier randomisation, evaluated here as the paper's discussion
// proposes ("promoting … data exposure minimization or ID randomization").
type Mitigation int

// Mitigations.
const (
	// MitigateStripNames removes user-assigned display names from
	// discovery payloads (Könings et al.'s naming-convention fix).
	MitigateStripNames Mitigation = 1 << iota
	// MitigateRandomizeUUIDs replaces stable UUIDs with per-session values.
	MitigateRandomizeUUIDs
	// MitigateRedactMACs removes MAC addresses from payloads (Matter still
	// fails this, §7).
	MitigateRedactMACs
)

// MitigateAll applies every countermeasure.
const MitigateAll = MitigateStripNames | MitigateRandomizeUUIDs | MitigateRedactMACs

// fingerprint builds a household's identifier fingerprint for one session.
// Mitigations transform identifiers the way a compliant device firmware
// would; session distinguishes per-session randomised values. cache may be
// nil (identifiers are then extracted inline).
func fingerprint(h *inspector.Household, cache *ExtractedIdentifiers, m Mitigation, session int) string {
	var parts []string
	for _, d := range h.Devices {
		ids := cache.Of(d)
		if m&MitigateStripNames == 0 {
			parts = append(parts, ids[IDName]...)
		}
		for _, u := range ids[IDUUID] {
			if m&MitigateRandomizeUUIDs != 0 {
				// A fresh UUID each session: stable across this session's
				// observations, useless across sessions.
				sum := sha256.Sum256([]byte("rand:" + h.ID + ":" + u + ":" + strconv.Itoa(session)))
				u = hex.EncodeToString(sum[:16])
			}
			parts = append(parts, u)
		}
		if m&MitigateRedactMACs == 0 {
			parts = append(parts, ids[IDMAC]...)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// ReidentificationResult quantifies a tracker's power under a mitigation
// regime: the share of households whose session-1 fingerprint re-identifies
// them uniquely in session 2, and the anonymity-set entropy (Table 2's
// metric) of the session-2 fingerprints.
type ReidentificationResult struct {
	Mitigation Mitigation
	// Households with a non-empty fingerprint in both sessions.
	Households int
	// Reidentified counts unique cross-session matches.
	Reidentified int
	// ReidRate is Reidentified/Households.
	ReidRate float64
	// EntropyBits is the fingerprint-distribution entropy in session 2
	// (high = fingerprintable; ~0 after full mitigation).
	EntropyBits float64
}

// MitigationName renders a mitigation set for reports.
func MitigationName(m Mitigation) string {
	if m == 0 {
		return "none"
	}
	var parts []string
	if m&MitigateStripNames != 0 {
		parts = append(parts, "strip-names")
	}
	if m&MitigateRandomizeUUIDs != 0 {
		parts = append(parts, "randomize-uuids")
	}
	if m&MitigateRedactMACs != 0 {
		parts = append(parts, "redact-macs")
	}
	return strings.Join(parts, "+")
}

// MitigationTableWith sweeps the lattice reusing a precomputed identifier
// extraction — one extraction pass instead of one per (regime, session).
// It folds the corpus into one partial and renders it with Rows
// (partial.go), the same path the sharded serving layer takes, so
// partitioned and whole-corpus sweeps are byte-identical by construction.
func MitigationTableWith(ds *inspector.Dataset, ids *ExtractedIdentifiers) []ReidentificationResult {
	return MitigationPartialOf(ds.Households, ids).Rows()
}

// RenderMitigationTable prints the sweep.
func RenderMitigationTable(rows []ReidentificationResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %10s %12s %10s\n", "mitigation", "households", "reid-rate", "entropy")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-36s %10d %11.1f%% %9.1f\n",
			MitigationName(r.Mitigation), r.Households, 100*r.ReidRate, r.EntropyBits)
	}
	return sb.String()
}
