package iotlan

import (
	"sync"
	"testing"
	"time"

	"iotlan/internal/analysis"
	"iotlan/internal/classify"
	"iotlan/internal/inspector"
	"iotlan/internal/layers"
	"iotlan/internal/testbed"
)

// benchStudy is built once; benches measure the analyses, and the reported
// custom metrics carry each experiment's headline numbers so a bench run
// regenerates the paper's tables and figures.
var (
	benchOnce sync.Once
	benchS    *Study
)

func benchStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		s := New(7, WithIdleDuration(30*time.Minute), WithInteractions(60),
			WithHouseholds(1500), WithApps(60))
		s.satisfy(NeedPassive | NeedScans | NeedVuln | NeedApps | NeedInspector)
		benchS = s
	})
	return benchS
}

// BenchmarkEverything times the full artifact fan-out with cold analysis
// caches per iteration — the end-to-end region BENCH_3.json tracks.
func BenchmarkEverything(b *testing.B) {
	s := benchStudy(b)
	want := len(Artifacts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetAnalysisCaches()
		if res := s.Everything(); len(res) != want {
			b.Fatalf("Everything returned %d results, want %d", len(res), want)
		}
	}
}

// --- One bench per table and figure ---------------------------------------

func BenchmarkTable3Catalog(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Table3()
	}
	b.ReportMetric(r.Metrics["devices"], "devices")
	b.ReportMetric(r.Metrics["unique_models"], "models")
}

func BenchmarkFigure1DeviceGraph(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Figure1()
	}
	b.ReportMetric(r.Metrics["talker_fraction"]*100, "talker_%")
	b.ReportMetric(r.Metrics["edges"], "edges")
	b.ReportMetric(r.Metrics["intra_cluster_fraction"]*100, "intra_cluster_%")
}

func BenchmarkFigure2ProtocolPrevalence(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Figure2()
	}
	b.ReportMetric(r.Metrics["passive/ARP"], "ARP_%")
	b.ReportMetric(r.Metrics["passive/mDNS"], "mDNS_%")
	b.ReportMetric(r.Metrics["passive/SSDP"], "SSDP_%")
	b.ReportMetric(r.Metrics["passive/TPLINK_SHP"], "TPLINK_%")
	b.ReportMetric(r.Metrics["avg_protocols_per_device"], "avg_protos")
}

func BenchmarkFigure3ClassifierMatrix(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Figure3()
	}
	b.ReportMetric(r.Metrics["spec_labeled"]*100, "tshark_labeled_%")
	b.ReportMetric(r.Metrics["dpi_labeled"]*100, "ndpi_labeled_%")
	b.ReportMetric(r.Metrics["disagree_frac"]*100, "disagree_%")
	b.ReportMetric(r.Metrics["neither_frac"]*100, "unlabeled_%")
}

func BenchmarkFigure4VendorClusters(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Figure4()
	}
	b.ReportMetric(r.Metrics["Amazon↔Amazon"], "amazon_edges")
	b.ReportMetric(r.Metrics["Google↔Google"], "google_edges")
	b.ReportMetric(r.Metrics["Apple↔Apple"], "apple_edges")
}

func BenchmarkTable1Exposure(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Table1()
	}
	b.ReportMetric(r.Metrics["filled_cells"], "filled_cells")
}

func BenchmarkTable2Entropy(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Table2()
	}
	b.ReportMetric(r.Metrics["unique_pct/UUID"], "uuid_unique_%")
	b.ReportMetric(r.Metrics["unique_pct/UUID+MAC"], "uuid_mac_unique_%")
	b.ReportMetric(r.Metrics["entropy_bits/UUID"], "uuid_entropy_bits")
	b.ReportMetric(r.Metrics["entropy_bits/UUID+MAC"], "uuid_mac_entropy_bits")
}

func BenchmarkTable4Responses(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Table4()
	}
	b.ReportMetric(r.Metrics["responders/Amazon Echo"], "echo_responders")
	b.ReportMetric(r.Metrics["responders/Google&Nest"], "google_responders")
}

func BenchmarkTable5Payloads(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Table5()
	}
	b.ReportMetric(float64(len(r.Rendered)), "payload_bytes")
}

func BenchmarkActiveScan(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.OpenPorts()
	}
	b.ReportMetric(r.Metrics["unique_tcp_ports"], "unique_tcp_ports")
	b.ReportMetric(r.Metrics["unique_udp_ports"], "unique_udp_ports")
	b.ReportMetric(r.Metrics["devices_with_open_port"], "devices_responding")
	b.ReportMetric(r.Metrics["echo_port_devices"], "echo_port_devices")
}

func BenchmarkDiscoveryIntervals(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Intervals()
	}
	b.ReportMetric(r.Metrics["Google_mDNS_median_s"], "google_mdns_s")
	b.ReportMetric(r.Metrics["Google_SSDP_median_s"], "google_ssdp_s")
	b.ReportMetric(r.Metrics["Amazon_mDNS_median_s"], "amazon_mdns_s")
}

func BenchmarkPeriodicity(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Periodicity()
	}
	b.ReportMetric(r.Metrics["periodic_fraction"]*100, "periodic_%")
	b.ReportMetric(r.Metrics["groups_per_device"], "groups_per_device")
}

func BenchmarkVulnScan(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.VulnSummary()
	}
	b.ReportMetric(r.Metrics["devices/CVE-2016-2183"], "weak_key_devices")
	b.ReportMetric(r.Metrics["devices/upnp-1.0"], "upnp10_devices")
	b.ReportMetric(r.Metrics["high_or_critical"], "high_critical_findings")
}

func BenchmarkAppExfiltration(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Exfiltration()
	}
	b.ReportMetric(r.Metrics["apps_sending/device_mac"], "mac_senders")
	b.ReportMetric(r.Metrics["apps_sending/router_ssid"], "ssid_senders")
	b.ReportMetric(r.Metrics["downlink_apps"], "downlink_apps")
	b.ReportMetric(r.Metrics["sdk_channels"], "sdk_channels")
}

func BenchmarkSDKBehaviours(b *testing.B) {
	s := benchStudy(b)
	// Count SDK-attributed records per library.
	for i := 0; i < b.N; i++ {
		_ = s.Exfiltration()
	}
	perSDK := map[string]int{}
	for _, rec := range s.AppRun.Records {
		if rec.SDK != "" {
			perSDK[rec.SDK]++
		}
	}
	b.ReportMetric(float64(perSDK["innosdk"]), "innosdk_records")
	b.ReportMetric(float64(perSDK["appdynamics"]), "appdynamics_records")
	b.ReportMetric(float64(perSDK["umlaut-insightcore"]), "umlaut_records")
	b.ReportMetric(float64(perSDK["mytracker"]), "mytracker_records")
}

func BenchmarkPermissionBypass(b *testing.B) {
	// §2.1 PoC: discovery scanning succeeds with only normal permissions.
	s := benchStudy(b)
	sidestepped := 0
	for _, c := range s.AppRun.APILog {
		if c.SideStepped {
			sidestepped++
		}
	}
	for i := 0; i < b.N; i++ {
		_ = sidestepped
	}
	b.ReportMetric(float64(sidestepped), "sidestepped_api_calls")
	b.ReportMetric(float64(len(s.AppRun.APILog)), "api_calls_logged")
}

// BenchmarkMitigations runs the §7 countermeasure sweep; the metrics show
// the re-identification collapse under full mitigation.
func BenchmarkMitigations(b *testing.B) {
	s := benchStudy(b)
	var r Result
	for i := 0; i < b.N; i++ {
		r = s.Mitigations()
	}
	b.ReportMetric(r.Metrics["reid_rate/none"]*100, "baseline_reid_%")
	b.ReportMetric(r.Metrics["reid_rate/strip-names+randomize-uuids+redact-macs"]*100, "mitigated_reid_%")
}

// --- Ablation benches (DESIGN.md's design-choice studies) ------------------

// BenchmarkAblationDecodeAllocVsReuse contrasts allocate-per-packet decoding
// with DecodingLayerParser-style struct reuse (gopacket's headline trick).
func BenchmarkAblationDecodeAllocVsReuse(b *testing.B) {
	s := benchStudy(b)
	frames := make([][]byte, 0, 4096)
	for _, r := range s.PassiveRecords() {
		frames = append(frames, r.Data)
		if len(frames) == cap(frames) {
			break
		}
	}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = layers.Decode(frames[i%len(frames)])
		}
	})
	b.Run("reuse", func(b *testing.B) {
		b.ReportAllocs()
		var p layers.Packet
		for i := 0; i < b.N; i++ {
			p.DecodeInto(frames[i%len(frames)])
		}
	})
}

// BenchmarkAblationFlowKeying contrasts unidirectional 5-tuple keying with
// canonicalised bidirectional keying. Both decode into one reused packet,
// as the analysis readers do, so they time the keying and not allocation.
func BenchmarkAblationFlowKeying(b *testing.B) {
	records := benchStudy(b).PassiveRecords()
	records = records[:min(len(records), 20000)]
	var p layers.Packet
	b.Run("unidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table := map[classify.FlowKey]int{}
			for _, rec := range records {
				p.DecodeInto(rec.Data)
				proto, sp, dp := p.Transport()
				if proto == "" {
					continue
				}
				table[classify.FlowKey{Src: p.SrcIP(), SrcPort: sp, Dst: p.DstIP(), DstPort: dp, Proto: proto}]++
			}
		}
	})
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table := map[classify.FlowKey]int{}
			for _, rec := range records {
				p.DecodeInto(rec.Data)
				proto, sp, dp := p.Transport()
				if proto == "" {
					continue
				}
				k := classify.FlowKey{Src: p.SrcIP(), SrcPort: sp, Dst: p.DstIP(), DstPort: dp, Proto: proto}
				rev := k.Reverse()
				if _, ok := table[rev]; ok {
					k = rev
				}
				table[k]++
			}
		}
	})
}

// BenchmarkAblationDPIPrefilter contrasts full-payload DPI with a cheap
// port pre-filter in front of it.
func BenchmarkAblationDPIPrefilter(b *testing.B) {
	flows, _ := classify.Assemble(benchStudy(b).PassiveRecords())
	dpi := classify.DPIClassifier{}
	spec := classify.SpecClassifier{}
	b.Run("dpi-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range flows {
				_ = dpi.Classify(f)
			}
		}
	})
	b.Run("port-prefilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range flows {
				if l := spec.Classify(f); l != classify.Unknown && l != "UDP-DATA" {
					continue
				}
				_ = dpi.Classify(f)
			}
		}
	})
}

// BenchmarkAblationIdentifierExtraction measures the full identifier
// extraction + entropy pipeline over a dataset (the byte-scanning design the
// package uses instead of regexp compilation).
func BenchmarkAblationIdentifierExtraction(b *testing.B) {
	ds := inspector.Generate(3, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.EntropyTable(ds)
	}
}

// BenchmarkSimulationThroughput measures raw event-loop speed: one iteration
// simulates ten minutes of the full 93-device lab.
func BenchmarkSimulationThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := testbed.New(int64(i) + 1)
		lab.Start()
		lab.RunIdle(10 * time.Minute)
	}
	b.ReportMetric(600, "virtual_s/op")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
