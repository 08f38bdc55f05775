package iotlan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"iotlan/internal/analysis"
	"iotlan/internal/app"
	"iotlan/internal/classify"
	"iotlan/internal/device"
	"iotlan/internal/engine"
	"iotlan/internal/layers"
	"iotlan/internal/scan"
	"iotlan/internal/sim"
)

// Result pairs a rendered table/figure with its headline numbers so callers
// (CLI, benches, EXPERIMENTS.md) share one source of truth.
type Result struct {
	// ID is the paper artifact ("Figure 1", "Table 2", …).
	ID string
	// Rendered is the text rendition.
	Rendered string
	// Metrics holds the headline numbers keyed by name.
	Metrics map[string]float64
}

// Figure1 builds the device-to-device communication graph, shared with
// Figure4 via the study's graph cache.
func (s *Study) Figure1() Result {
	s.RunPassive()
	g := s.PassiveGraph()
	return Result{
		ID:       "Figure 1",
		Rendered: analysis.RenderGraph(g),
		Metrics: map[string]float64{
			"talker_fraction":        g.TalkerFraction(),
			"edges":                  float64(len(g.Edges)),
			"intra_cluster_fraction": analysis.IntraClusterFraction(g, s.Lab.Devices),
		},
	}
}

// Figure2 builds the protocol-prevalence chart across all three methods.
func (s *Study) Figure2() Result {
	s.RunPassive()
	apps := s.Apps
	if apps == nil {
		apps = appDatasetFor(s)
	}
	passive := analysis.PassiveProtocols(s.PassiveRecords(), s.Lab.Devices)
	rows := analysis.ProtocolTable(passive, len(s.Lab.Devices), s.Scans, apps)
	metrics := map[string]float64{}
	for _, r := range rows {
		metrics["passive/"+r.Protocol] = r.PassivePct
		if r.ScanPct > 0 {
			metrics["scan/"+r.Protocol] = r.ScanPct
		}
		if r.AppPct > 0 {
			metrics["apps/"+r.Protocol] = r.AppPct
		}
	}
	avg, max, _ := analysis.AvgProtocolsPerDevice(passive)
	metrics["avg_protocols_per_device"] = avg
	metrics["max_protocols_per_device"] = float64(max)
	return Result{ID: "Figure 2", Rendered: analysis.RenderProtocolTable(rows), Metrics: metrics}
}

// Table1 builds the information-exposure matrix.
func (s *Study) Table1() Result {
	s.RunPassive()
	m := analysis.BuildExposure(s.PassiveRecords())
	filled := 0.0
	for _, proto := range analysis.ExposureRows {
		for _, f := range analysis.ExposureFields {
			if m.Exposed(proto, f) {
				filled++
			}
		}
	}
	return Result{
		ID:       "Table 1",
		Rendered: analysis.RenderExposure(m) + "\nEvidence:\n  " + strings.Join(analysis.ExposureEvidence(m), "\n  "),
		Metrics:  map[string]float64{"filled_cells": filled},
	}
}

// Table2 runs the household-fingerprint entropy analysis, reusing the
// study's extract-once identifier cache.
func (s *Study) Table2() Result {
	ids := s.ExtractedIdentifiers()
	return EntropyResult(analysis.EntropyTableWith(s.Inspector, ids))
}

// EntropyResult renders Table 2 rows as the registry's canonical artifact
// Result. Exported so the sharded serving layer, which assembles rows by
// merging per-shard partials, produces bytes identical to the offline
// Study's — one rendering path, two row sources.
func EntropyResult(rows []analysis.EntropyRow) Result {
	metrics := map[string]float64{}
	for _, r := range rows {
		key := strings.ReplaceAll(r.Key(), ", ", "+")
		metrics["households/"+key] = float64(r.Households)
		if len(r.Types) > 0 {
			metrics["unique_pct/"+key] = r.UniquePct
			metrics["entropy_bits/"+key] = r.EntropyBits
		}
	}
	return Result{ID: "Table 2", Rendered: analysis.RenderEntropyTable(rows), Metrics: metrics}
}

// Table3 renders the device inventory.
func (s *Study) Table3() Result {
	cat := device.Catalog()
	perCategory := map[device.Category]map[string]int{}
	for _, p := range cat {
		if perCategory[p.Category] == nil {
			perCategory[p.Category] = map[string]int{}
		}
		perCategory[p.Category][p.Vendor]++
	}
	var cats []device.Category
	for c := range perCategory {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	var sb strings.Builder
	models := map[string]bool{}
	for _, c := range cats {
		var vendors []string
		for v := range perCategory[c] {
			vendors = append(vendors, v)
		}
		sort.Strings(vendors)
		var parts []string
		for _, v := range vendors {
			parts = append(parts, fmt.Sprintf("%s (%d)", v, perCategory[c][v]))
		}
		fmt.Fprintf(&sb, "%-16s %s\n", c, strings.Join(parts, ", "))
	}
	for _, p := range cat {
		models[p.UniqueModelKey()] = true
	}
	return Result{
		ID:       "Table 3",
		Rendered: sb.String(),
		Metrics: map[string]float64{
			"devices":       float64(len(cat)),
			"unique_models": float64(len(models)),
		},
	}
}

// Table4 correlates discoveries with responses per device group.
func (s *Study) Table4() Result {
	s.RunPassive()
	rows := analysis.ResponseTable(s.PassiveRecords(), s.Lab.Devices)
	metrics := map[string]float64{}
	for _, r := range rows {
		metrics["responders/"+string(r.Category)] = r.AvgResponders
		metrics["discovery/"+string(r.Category)] = r.AvgDiscovery
	}
	return Result{ID: "Table 4", Rendered: analysis.RenderResponseTable(rows), Metrics: metrics}
}

// Table5 renders representative identifier-bearing payloads.
func (s *Study) Table5() Result {
	s.RunPassive()
	var sb strings.Builder
	hue := s.Lab.Device("hue-hub")
	amcrest := s.Lab.Device("amcrest-cam")
	plug := s.Lab.Device("tplink-plug")

	if amcrest != nil {
		doc, _ := amcrest.DescriptionDocument()
		fmt.Fprintf(&sb, "--- SSDP device description (Amcrest) ---\n%s\n\n", doc)
	}
	if hue != nil {
		fmt.Fprintf(&sb, "--- mDNS instance (Philips Hue) ---\nPhilips Hue - %s._hue._tcp.local TXT bridgeid=%s\n\n",
			hue.MAC().Tail(3), hue.MAC().Compact())
	}
	fmt.Fprintf(&sb, "--- NetBIOS NBSTAT query ---\n% x\n\n", netbiosSample())
	if plug != nil {
		fmt.Fprintf(&sb, "--- TPLINK-SHP sysinfo (plaintext after XOR-autokey) ---\n%s\n", tplinkSample(plug))
	}
	return Result{ID: "Table 5", Rendered: sb.String(), Metrics: map[string]float64{}}
}

func netbiosSample() []byte {
	// The canonical CKAAAA… wildcard node-status query.
	return []byte("\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00 CKAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\x00\x00!\x00\x01")
}

func tplinkSample(d *device.Device) string {
	spec := d.Profile.TPLink
	return fmt.Sprintf(`{"system":{"get_sysinfo":{"alias":%q,"dev_name":%q,"mac":%q,"latitude":%v,"longitude":%v}}}`,
		d.Profile.DisplayName, d.Profile.Model, d.MAC(), spec.Latitude, spec.Longitude)
}

// Figure3 cross-validates the two classifiers.
func (s *Study) Figure3() Result {
	s.RunPassive()
	flows, nonFlow := classify.Assemble(s.PassiveRecords())
	c := classify.Compare(flows, nonFlow)
	spec, dpi, disagree, neither := c.Fractions()
	return Result{
		ID:       "Figure 3",
		Rendered: c.Render(),
		Metrics: map[string]float64{
			"units":         float64(c.Total),
			"spec_labeled":  spec,
			"dpi_labeled":   dpi,
			"disagree_frac": disagree,
			"neither_frac":  neither,
		},
	}
}

// Figure4 extracts the per-vendor cluster subgraphs from the shared graph.
func (s *Study) Figure4() Result {
	s.RunPassive()
	g := s.PassiveGraph()
	clusters := analysis.VendorClusters(g, s.Lab.Devices)
	var keys []string
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	metrics := map[string]float64{}
	for _, k := range keys {
		fmt.Fprintf(&sb, "%-28s %d edges\n", k, clusters[k])
		metrics[k] = float64(clusters[k])
	}
	return Result{ID: "Figure 4", Rendered: sb.String(), Metrics: metrics}
}

// OpenPorts summarises the active-scan findings (§4.2).
func (s *Study) OpenPorts() Result {
	s.RunScans()
	uniqueTCP, uniqueUDP := map[uint16]bool{}, map[uint16]bool{}
	responders := 0
	echoPortDevices := 0
	var sb strings.Builder
	var names []string
	for n := range s.Scans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.Scans[name]
		if len(r.TCPOpen)+len(r.UDPOpen) > 0 {
			responders++
		}
		hasEchoPorts := false
		for _, p := range r.TCPOpen {
			uniqueTCP[p] = true
			if p == 55442 || p == 55443 || p == 4070 {
				hasEchoPorts = true
			}
		}
		for _, p := range r.UDPOpen {
			uniqueUDP[p] = true
		}
		for _, p := range r.UDPOpenFiltered {
			uniqueUDP[p] = true
		}
		if hasEchoPorts {
			echoPortDevices++
		}
		if len(r.TCPOpen) > 0 {
			fmt.Fprintf(&sb, "%-22s tcp:%v udp:%v\n", name, r.TCPOpen, r.UDPOpen)
		}
	}
	fmt.Fprintf(&sb, "\nnmap label corrections (§3.5): %d ports relabeled\n", len(scan.MislabeledPorts()))
	return Result{
		ID:       "§4.2 open services",
		Rendered: sb.String(),
		Metrics: map[string]float64{
			"unique_tcp_ports":       float64(len(uniqueTCP)),
			"unique_udp_ports":       float64(len(uniqueUDP)),
			"devices_with_open_port": float64(responders),
			"echo_port_devices":      float64(echoPortDevices),
		},
	}
}

// Intervals summarises the discovery cadences (§5.1).
func (s *Study) Intervals() Result {
	s.RunPassive()
	rows := analysis.DiscoveryIntervals(s.PassiveRecords(), s.Lab.Devices)
	metrics := map[string]float64{}
	for _, pair := range [][2]string{
		{"Google", "mDNS"}, {"Google", "SSDP"}, {"Amazon", "mDNS"}, {"Apple", "mDNS"},
	} {
		if med, ok := analysis.VendorMedian(rows, pair[0], pair[1]); ok {
			metrics[pair[0]+"_"+pair[1]+"_median_s"] = med.Seconds()
		}
	}
	return Result{ID: "§5.1 discovery intervals", Rendered: analysis.RenderIntervals(rows), Metrics: metrics}
}

// Periodicity runs the Appendix D.1 analysis.
func (s *Study) Periodicity() Result {
	s.RunPassive()
	sum := analysis.SummarizePeriodicity(s.PassiveRecords())
	return Result{
		ID: "Appendix D.1",
		Rendered: fmt.Sprintf("discovery groups=%d periodic=%d fraction=%.2f groups/device=%.1f\n",
			sum.Groups, sum.Periodic, sum.PeriodicFrac, sum.GroupsPerDevice),
		Metrics: map[string]float64{
			"groups":            float64(sum.Groups),
			"periodic_fraction": sum.PeriodicFrac,
			"groups_per_device": sum.GroupsPerDevice,
		},
	}
}

// Exfiltration summarises the §6.1/§6.2 app findings.
func (s *Study) Exfiltration() Result {
	if s.AppRun == nil {
		s.RunApps()
	}
	appsPer := map[string]map[string]bool{}
	sdkEndpoints := map[string]bool{}
	downlinkApps := map[string]bool{}
	for _, r := range s.AppRun.Records {
		if appsPer[r.DataType] == nil {
			appsPer[r.DataType] = map[string]bool{}
		}
		appsPer[r.DataType][r.App] = true
		if r.SDK != "" {
			sdkEndpoints[r.SDK+"→"+r.Endpoint] = true
		}
		if r.Direction == "downlink" {
			downlinkApps[r.App] = true
		}
	}
	var sb strings.Builder
	var dataTypes []string
	for dt := range appsPer {
		dataTypes = append(dataTypes, dt)
	}
	sort.Strings(dataTypes)
	metrics := map[string]float64{}
	for _, dt := range dataTypes {
		n := len(appsPer[dt])
		fmt.Fprintf(&sb, "%-24s %4d apps\n", dt, n)
		metrics["apps_sending/"+dt] = float64(n)
	}
	var sdks []string
	for se := range sdkEndpoints {
		sdks = append(sdks, se)
	}
	sort.Strings(sdks)
	fmt.Fprintf(&sb, "\nSDK exfiltration channels:\n  %s\n", strings.Join(sdks, "\n  "))
	fmt.Fprintf(&sb, "apps receiving downlink MACs: %d\n", len(downlinkApps))
	metrics["sdk_channels"] = float64(len(sdkEndpoints))
	metrics["downlink_apps"] = float64(len(downlinkApps))
	return Result{ID: "§6.1/§6.2 exfiltration", Rendered: sb.String(), Metrics: metrics}
}

// VulnSummary aggregates the Nessus-like findings (§5.2).
func (s *Study) VulnSummary() Result {
	if s.Findings == nil {
		s.RunVulnScans()
	}
	perID := map[string]int{}
	var highSev int
	for _, fs := range s.Findings {
		for _, f := range fs {
			perID[f.ID]++
			if f.Severity >= 3 {
				highSev++
			}
		}
	}
	var ids []string
	for id := range perID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sb strings.Builder
	metrics := map[string]float64{"high_or_critical": float64(highSev)}
	for _, id := range ids {
		fmt.Fprintf(&sb, "%-28s %3d devices\n", id, perID[id])
		metrics["devices/"+id] = float64(perID[id])
	}
	return Result{ID: "§5.2 vulnerabilities", Rendered: sb.String(), Metrics: metrics}
}

// HoneypotReport summarises honeypot interactions and token propagation.
func (s *Study) HoneypotReport() Result {
	s.RunPassive()
	inter := s.Honeypot.Interactions()
	var sb strings.Builder
	metrics := map[string]float64{}
	var protos []string
	for p := range inter {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	for _, p := range protos {
		fmt.Fprintf(&sb, "%-8s %5d interactions\n", p, inter[p])
		metrics[p] = float64(inter[p])
	}
	fmt.Fprintf(&sb, "visitors: %d\n", len(s.Honeypot.Visitors()))
	// Token propagation: did the honeytoken reach any app exfil record?
	leaked := 0
	if s.AppRun != nil {
		for _, r := range s.AppRun.Records {
			if s.Honeypot.TokenAppearsIn([]byte(r.Value)) {
				leaked++
			}
		}
	}
	fmt.Fprintf(&sb, "honeytoken exfiltration records: %d\n", leaked)
	metrics["visitors"] = float64(len(s.Honeypot.Visitors()))
	metrics["token_exfil_records"] = float64(leaked)
	return Result{ID: "honeypot", Rendered: sb.String(), Metrics: metrics}
}

// ChaosReport summarises the fault-injection run: the active plan, injected
// faults by kind, and LAN drops by reason. With chaos disabled it reports a
// clean network, so the artifact is always safe to render.
func (s *Study) ChaosReport() Result {
	s.RunPassive()
	reg := s.Lab.Telemetry().Registry
	metrics := map[string]float64{}
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos plan: %s\n", s.Lab.Chaos.Plan)
	fmt.Fprintf(&sb, "\ninjected faults by kind:\n")
	for _, kind := range []string{"loss", "duplicate", "reorder", "corrupt", "partition", "crash", "restart"} {
		v := reg.CounterValue(fmt.Sprintf("chaos_faults{kind=%s}", kind))
		metrics["faults/"+kind] = float64(v)
		fmt.Fprintf(&sb, "  %-10s %d\n", kind, v)
	}
	fmt.Fprintf(&sb, "\nLAN frame drops by reason:\n")
	for _, reason := range []string{"undecodable", "unknown-unicast", "detached", "chaos-loss", "chaos-partition"} {
		v := reg.CounterValue(fmt.Sprintf("lan_frames_dropped{reason=%s}", reason))
		metrics["drops/"+reason] = float64(v)
		fmt.Fprintf(&sb, "  %-16s %d\n", reason, v)
	}
	delivered := reg.CounterValue("lan_frames_delivered")
	dropped := reg.Total("lan_frames_dropped")
	metrics["frames_delivered"] = float64(delivered)
	metrics["frames_dropped"] = float64(dropped)
	lossRate := 0.0
	if delivered+dropped > 0 {
		lossRate = float64(dropped) / float64(delivered+dropped)
	}
	metrics["drop_rate"] = lossRate
	fmt.Fprintf(&sb, "\ndelivered=%d dropped=%d drop_rate=%.4f\n", delivered, dropped, lossRate)
	return Result{ID: "fault injection", Rendered: sb.String(), Metrics: metrics}
}

// infraPorts are transport ports whose traffic is network plumbing or
// periodic discovery, not user activity: DNS, DHCP, NTP, NetBIOS, SSDP,
// mDNS, CoAP. Diurnal excludes them from the interactive histogram.
var infraPorts = map[uint16]bool{
	53: true, 67: true, 68: true, 123: true, 137: true, 138: true,
	1900: true, 5353: true, 5683: true,
}

// platformPorts collects the catalog's platform-internal sync ports — the
// TLS control endpoints and RTP audio-sync ports that wirePeers exercises on
// a fixed cadence around the clock. Like the infraPorts, traffic there is
// periodic by construction, so Diurnal files it under background.
func platformPorts() map[uint16]bool {
	ports := map[uint16]bool{}
	for _, p := range device.Catalog() {
		for _, ts := range p.TLS {
			ports[ts.Port] = true
		}
		if p.RTPPort != 0 {
			ports[p.RTPPort] = true
		}
	}
	return ports
}

// interactiveFrame reports whether a decoded frame is plausibly user-driven:
// a TCP segment or a unicast UDP datagram off the infrastructure and
// platform-sync ports. Beacons, announcements, gateway probes, and platform
// keepalives all fall outside — they are periodic by construction and would
// mask the household's rhythm.
func interactiveFrame(p *layers.Packet, platform map[uint16]bool) bool {
	if p.Err != nil || !p.HasIP4 {
		return false
	}
	var src, dst uint16
	switch {
	case p.HasTCP:
		src, dst = p.TCP.SrcPort, p.TCP.DstPort
	case p.HasUDP:
		if ip := p.IP4.Dst; ip.IsMulticast() || ip.As4()[3] == 255 {
			return false
		}
		src, dst = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return false
	}
	return !infraPorts[src] && !infraPorts[dst] && !platform[src] && !platform[dst]
}

// Diurnal renders the hour-of-day structure of the passive capture: total
// frames and bytes, the interactive subset (TCP plus unicast UDP off the
// infrastructure ports — see interactiveFrame), and the resident schedule's
// own activity histogram when a plan is enabled. The headline metric is
// hour_cv — the coefficient of variation of interactive frames across the
// hours the run actually covered. The platform's periodic beacon chatter is
// uniform around the clock and dominates raw frame counts, so the total-frame
// CV (kept as total_cv) stays flat in any run; the interactive CV is where a
// lived-in household's rhythm shows — near zero for the scripted baseline,
// high for persona-driven runs that concentrate activity in waking hours,
// reproducing the diurnal shape of "Characterizing Smart Home IoT Traffic in
// the Wild".
func (s *Study) Diurnal() Result {
	s.RunPassive()
	var frames, bytes, active [24]float64
	platform := platformPorts()
	// The first virtual hour is the boot transient — every device runs DHCP,
	// fetches descriptions, dials its platform — and would read as a fake
	// midnight activity peak, so it stays out of the interactive histogram.
	bootCut := sim.Epoch.Add(time.Hour)
	var p layers.Packet
	for _, rec := range s.PassiveRecords() {
		h := rec.Time.Hour()
		frames[h]++
		bytes[h] += float64(len(rec.Data))
		if rec.Time.Before(bootCut) {
			continue
		}
		p.DecodeInto(rec.Data)
		if interactiveFrame(&p, platform) {
			active[h]++
		}
	}
	// Only hours the virtual window reached count toward the statistics: a
	// 45-minute baseline run must not read as "23 silent hours".
	covered := 24
	if d := s.Lab.Sched.Now().Sub(sim.Epoch); d < 24*time.Hour {
		covered = int(d/time.Hour) + 1
	}
	var schedule [24]int
	if s.residentPlan.Enabled() {
		schedule = s.Lab.Residents.HourHistogram()
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "hour-of-day traffic structure (residents: %s)\n", s.residentPlan)
	fmt.Fprintf(&sb, "%4s %10s %12s %10s %10s\n", "hour", "frames", "bytes", "active", "schedule")
	cvOver := func(hist [24]float64) (cv, peak float64, peakHour int) {
		// float64() rounds each product, so no platform fuses it into the
		// sum or difference.
		var sum, sumSq float64
		for h := 0; h < covered; h++ {
			sum += hist[h]
			sumSq += float64(hist[h] * hist[h])
			if hist[h] > peak {
				peak, peakHour = hist[h], h
			}
		}
		mean := sum / float64(covered)
		if mean > 0 {
			cv = math.Sqrt(sumSq/float64(covered)-float64(mean*mean)) / mean
		}
		return cv, peak, peakHour
	}
	var activeSum float64
	for h := 0; h < covered; h++ {
		fmt.Fprintf(&sb, "%4d %10.0f %12.0f %10.0f %10d\n", h, frames[h], bytes[h], active[h], schedule[h])
		activeSum += active[h]
	}
	cv, peak, peakHour := cvOver(active)
	totalCV, _, _ := cvOver(frames)
	scheduleEvents := 0
	for _, v := range schedule {
		scheduleEvents += v
	}
	metrics := map[string]float64{
		"hour_cv":         cv,
		"total_cv":        totalCV,
		"hours_covered":   float64(covered),
		"active_frames":   activeSum,
		"peak_hour":       float64(peakHour),
		"peak_to_mean":    safeDiv(peak, activeSum/float64(covered)),
		"schedule_events": float64(scheduleEvents),
	}
	fmt.Fprintf(&sb, "hours=%d cv=%.3f total_cv=%.3f active=%0.f peak_hour=%d peak/mean=%.2f schedule_events=%d\n",
		covered, cv, totalCV, activeSum, peakHour, safeDiv(peak, activeSum/float64(covered)), scheduleEvents)
	return Result{ID: "diurnal", Rendered: sb.String(), Metrics: metrics}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Mitigations runs the §7 what-if study: how far do the paper's proposed
// countermeasures (name minimisation, UUID randomisation, MAC redaction)
// reduce cross-session household re-identification?
func (s *Study) Mitigations() Result {
	ids := s.ExtractedIdentifiers()
	return MitigationResult(analysis.MitigationTableWith(s.Inspector, ids))
}

// MitigationResult renders §7 sweep rows as the canonical artifact Result —
// the shared rendering path for the offline Study and the sharded serving
// layer (see EntropyResult).
func MitigationResult(rows []analysis.ReidentificationResult) Result {
	metrics := map[string]float64{}
	for _, r := range rows {
		name := analysis.MitigationName(r.Mitigation)
		metrics["reid_rate/"+name] = r.ReidRate
		metrics["entropy/"+name] = r.EntropyBits
	}
	return Result{ID: "§7 mitigations", Rendered: analysis.RenderMitigationTable(rows), Metrics: metrics}
}

// appDatasetFor lets Figure2 run without a full app execution.
func appDatasetFor(s *Study) []app.App { return app.Dataset(s.seed) }

// Everything runs all registered artifacts and returns them in paper order.
// After the (sequential, virtual-time) pipelines finish, the shared
// communication graph and identifier cache are built, then artifacts fan
// out across Workers — results are merged by registry index, never by
// completion order, so output is byte-identical to a sequential run.
func (s *Study) Everything() []Result {
	// prepare with the union of every artifact's Needs runs all pipelines,
	// then builds the shared read-only prerequisites (communication graph,
	// identifier extraction) before the fan-out — so workers start with
	// warm caches instead of serialising on the first artifact to hit each
	// sync.Once.
	arts := Artifacts()
	var needs NeedMask
	for _, a := range arts {
		needs |= a.Needs
	}
	s.prepare(needs)
	return engine.Map(s.workers, len(arts), func(i int) Result { return arts[i].Fn(s) })
}
