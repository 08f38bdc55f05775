package iotlan

import (
	"fmt"
	"sort"
	"strings"
)

// NeedMask declares which pipeline stages an artifact consumes. The engine
// uses it to run only the pipelines an artifact requires; Export uses it to
// decide which artifacts a partially-run study can still report.
type NeedMask int

// Pipeline stages an artifact can depend on.
const (
	// NeedPassive requires the passive capture (and the honeypot, which is
	// deployed during the passive phase).
	NeedPassive NeedMask = 1 << iota
	// NeedScans requires the nmap-like port sweep.
	NeedScans
	// NeedVuln requires the Nessus-like vulnerability audit.
	NeedVuln
	// NeedApps requires the instrumented-phone app execution.
	NeedApps
	// NeedInspector requires the crowdsourced IoT Inspector dataset.
	NeedInspector
)

// String renders the mask as "passive+scans".
func (n NeedMask) String() string {
	if n == 0 {
		return "none"
	}
	var parts []string
	for _, p := range []struct {
		bit  NeedMask
		name string
	}{
		{NeedPassive, "passive"}, {NeedScans, "scans"}, {NeedVuln, "vuln"},
		{NeedApps, "apps"}, {NeedInspector, "inspector"},
	} {
		if n&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "+")
}

// satisfy runs exactly the pipelines the mask names (each idempotent).
func (s *Study) satisfy(n NeedMask) {
	if n&NeedPassive != 0 {
		s.RunPassive()
	}
	if n&NeedScans != 0 {
		s.RunScans()
	}
	if n&NeedVuln != 0 {
		s.RunVulnScans()
	}
	if n&NeedApps != 0 {
		s.RunApps()
	}
	if n&NeedInspector != 0 {
		s.RunInspector()
	}
}

// prepare runs the pipelines the mask names, then pre-builds the shared
// analysis prerequisites those stages unlock — the communication graph for
// passive consumers, the identifier extraction for Inspector consumers. Each
// is behind a sync.Once, so concurrent artifacts that skipped prepare would
// still be safe; building up front just keeps the expensive work out of the
// fan-out's critical path (and out of per-artifact timings). The passive
// capture itself needs no preparing: each artifact decodes the records it
// reads as it reads them.
func (s *Study) prepare(n NeedMask) {
	s.satisfy(n)
	if n&NeedPassive != 0 {
		s.PassiveGraph()
	}
	if n&NeedInspector != 0 {
		s.ExtractedIdentifiers()
	}
}

// ran reports whether every pipeline the mask names has already finished.
func (s *Study) ran(n NeedMask) bool {
	if n&NeedPassive != 0 && !s.passiveDone {
		return false
	}
	if n&NeedScans != 0 && s.Scans == nil {
		return false
	}
	if n&NeedVuln != 0 && s.Findings == nil {
		return false
	}
	if n&NeedApps != 0 && s.AppRun == nil {
		return false
	}
	if n&NeedInspector != 0 && s.Inspector == nil {
		return false
	}
	return true
}

// Artifact is one registered paper artifact: a named, self-describing unit
// the engine, Everything, Export, and cmd/iotrepro all drive from the same
// table.
type Artifact struct {
	// Name is the canonical CLI name ("figure1", "table2", "ports", …).
	Name string
	// PaperRef locates the artifact in the paper ("Figure 1", "§4.2", …).
	PaperRef string
	// Kind classifies the artifact: "figure", "table", "section", "appendix".
	Kind string
	// Needs names the pipeline stages the artifact consumes.
	Needs NeedMask
	// Fn produces the artifact from a study whose Needs have run.
	Fn func(*Study) Result
	// Aliases are accepted alternate CLI spellings.
	Aliases []string
}

// registry lists every artifact in paper order — the order Everything
// returns and always has.
var registry = []Artifact{
	{Name: "table3", PaperRef: "Table 3", Kind: "table", Needs: 0,
		Fn: (*Study).Table3, Aliases: []string{"table 3", "tab3", "inventory"}},
	{Name: "figure1", PaperRef: "Figure 1", Kind: "figure", Needs: NeedPassive,
		Fn: (*Study).Figure1, Aliases: []string{"figure 1", "fig1", "graph"}},
	{Name: "figure2", PaperRef: "Figure 2", Kind: "figure", Needs: NeedPassive,
		Fn: (*Study).Figure2, Aliases: []string{"figure 2", "fig2", "protocols"}},
	{Name: "figure3", PaperRef: "Figure 3", Kind: "figure", Needs: NeedPassive,
		Fn: (*Study).Figure3, Aliases: []string{"figure 3", "fig3", "classifiers"}},
	{Name: "figure4", PaperRef: "Figure 4", Kind: "figure", Needs: NeedPassive,
		Fn: (*Study).Figure4, Aliases: []string{"figure 4", "fig4", "clusters"}},
	{Name: "table1", PaperRef: "Table 1", Kind: "table", Needs: NeedPassive,
		Fn: (*Study).Table1, Aliases: []string{"table 1", "tab1", "exposure"}},
	{Name: "ports", PaperRef: "§4.2 open services", Kind: "section", Needs: NeedScans,
		Fn: (*Study).OpenPorts, Aliases: []string{"openports", "open-ports"}},
	{Name: "intervals", PaperRef: "§5.1 discovery intervals", Kind: "section", Needs: NeedPassive,
		Fn: (*Study).Intervals, Aliases: []string{"discovery-intervals"}},
	{Name: "periodicity", PaperRef: "Appendix D.1", Kind: "appendix", Needs: NeedPassive,
		Fn: (*Study).Periodicity, Aliases: []string{"d1"}},
	{Name: "vulns", PaperRef: "§5.2 vulnerabilities", Kind: "section", Needs: NeedVuln,
		Fn: (*Study).VulnSummary, Aliases: []string{"vuln", "vulnerabilities"}},
	{Name: "table4", PaperRef: "Table 4", Kind: "table", Needs: NeedPassive,
		Fn: (*Study).Table4, Aliases: []string{"table 4", "tab4", "responses"}},
	{Name: "table5", PaperRef: "Table 5", Kind: "table", Needs: NeedPassive,
		Fn: (*Study).Table5, Aliases: []string{"table 5", "tab5", "payloads"}},
	{Name: "exfil", PaperRef: "§6.1/§6.2 exfiltration", Kind: "section", Needs: NeedApps,
		Fn: (*Study).Exfiltration, Aliases: []string{"exfiltration", "apps"}},
	{Name: "table2", PaperRef: "Table 2", Kind: "table", Needs: NeedInspector,
		Fn: (*Study).Table2, Aliases: []string{"table 2", "tab2", "entropy"}},
	{Name: "mitigations", PaperRef: "§7 mitigations", Kind: "section", Needs: NeedInspector,
		Fn: (*Study).Mitigations, Aliases: []string{"mitigation"}},
	{Name: "honeypot", PaperRef: "honeypot", Kind: "section", Needs: NeedPassive,
		Fn: (*Study).HoneypotReport, Aliases: []string{"honey"}},
	{Name: "chaos", PaperRef: "fault injection", Kind: "section", Needs: NeedPassive,
		Fn: (*Study).ChaosReport, Aliases: []string{"faults", "fault-injection"}},
	{Name: "diurnal", PaperRef: "diurnal", Kind: "section", Needs: NeedPassive,
		Fn: (*Study).Diurnal, Aliases: []string{"hours", "hour-of-day"}},
}

// Artifacts returns the registry in paper order. The slice is a copy;
// mutating it does not affect the engine.
func Artifacts() []Artifact {
	out := make([]Artifact, len(registry))
	copy(out, registry)
	return out
}

// ArtifactNames lists canonical names in paper order.
func ArtifactNames() []string {
	out := make([]string, len(registry))
	for i, a := range registry {
		out[i] = a.Name
	}
	return out
}

// ArtifactByName resolves a canonical name, alias, or PaperRef,
// case-insensitively.
func ArtifactByName(name string) (Artifact, bool) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, a := range registry {
		if a.Name == want || strings.ToLower(a.PaperRef) == want {
			return a, true
		}
		for _, al := range a.Aliases {
			if al == want {
				return a, true
			}
		}
	}
	return Artifact{}, false
}

// RunArtifact resolves name in the registry, runs exactly the pipelines the
// artifact needs, and produces it.
func (s *Study) RunArtifact(name string) (Result, error) {
	a, ok := ArtifactByName(name)
	if !ok {
		names := ArtifactNames()
		sort.Strings(names)
		return Result{}, fmt.Errorf("iotlan: unknown artifact %q (known: %s)", name, strings.Join(names, ", "))
	}
	s.prepare(a.Needs)
	return a.Fn(s), nil
}
