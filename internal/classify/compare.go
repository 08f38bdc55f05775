package classify

import (
	"fmt"
	"sort"
	"strings"

	"iotlan/internal/layers"
	"iotlan/internal/pcap"
	"iotlan/internal/rtp"
)

// ClassifyPacketSpec labels a non-flow (layer 2/3) packet the tshark way:
// header-driven, essentially always right at these layers.
func ClassifyPacketSpec(p *layers.Packet) string {
	return p.L3Name()
}

// ClassifyPacketDPI labels a non-flow packet the nDPI way. Its Amazon
// traffic signature fires on Nintendo's EAPOL frames (Appendix C.2).
func ClassifyPacketDPI(p *layers.Packet) string {
	if p.HasEAPOL {
		if p.Eth.Src.OUI() == [3]byte{0x98, 0xb6, 0xe9} { // Nintendo OUI
			return "AMAZONAWS"
		}
		return "EAPOL"
	}
	return p.L3Name()
}

// Comparison is the Appendix C.2 cross-validation result.
type Comparison struct {
	// Matrix counts (specLabel, dpiLabel) pairs — Figure 3's heatmap.
	Matrix map[[2]string]int
	// Total is the number of classified units (flows + non-flow packets).
	Total int
	// Agree / Disagree / BothUnknown partition Total.
	Agree, Disagree, BothUnknown int
	// SpecLabeled / DPILabeled count units each tool labeled.
	SpecLabeled, DPILabeled int
}

// Compare runs both classifiers over flows and non-flow records and builds
// the agreement matrix, decoding each non-flow record into one reused
// packet.
func Compare(flows []*Flow, nonFlow []pcap.Record) *Comparison {
	c := &Comparison{Matrix: map[[2]string]int{}}
	spec, dpi := SpecClassifier{}, DPIClassifier{}
	record := func(s, d string) {
		c.Matrix[[2]string{s, d}]++
		c.Total++
		su, du := s == Unknown || s == "UDP-DATA", d == Unknown
		switch {
		case su && du:
			c.BothUnknown++
		case s == d:
			c.Agree++
		default:
			c.Disagree++
		}
		if !su {
			c.SpecLabeled++
		}
		if !du {
			c.DPILabeled++
		}
	}
	for _, f := range flows {
		record(spec.Classify(f), dpi.Classify(f))
	}
	var p layers.Packet
	for _, r := range nonFlow {
		p.DecodeInto(r.Data)
		record(ClassifyPacketSpec(&p), ClassifyPacketDPI(&p))
	}
	return c
}

// Fractions returns (specLabeled, dpiLabeled, disagree, neither) as
// fractions of Total — the Appendix C.2 headline numbers.
func (c *Comparison) Fractions() (spec, dpi, disagree, neither float64) {
	if c.Total == 0 {
		return
	}
	t := float64(c.Total)
	return float64(c.SpecLabeled) / t, float64(c.DPILabeled) / t,
		float64(c.Disagree) / t, float64(c.BothUnknown) / t
}

// Render prints the matrix as an aligned table (the Figure 3 heatmap in
// text form), rows = spec labels, columns = DPI labels.
func (c *Comparison) Render() string {
	rows, cols := map[string]bool{}, map[string]bool{}
	for k := range c.Matrix {
		rows[k[0]] = true
		cols[k[1]] = true
	}
	rl, cl := sortedKeys(rows), sortedKeys(cols)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s", "spec\\dpi")
	for _, col := range cl {
		fmt.Fprintf(&sb, "%12s", truncate(col, 11))
	}
	sb.WriteByte('\n')
	for _, row := range rl {
		fmt.Fprintf(&sb, "%-20s", truncate(row, 19))
		for _, col := range cl {
			fmt.Fprintf(&sb, "%12d", c.Matrix[[2]string{row, col}])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// Final is the study's corrected classifier: nDPI output plus the manual
// override rules built from lab ground truth (§3.5).
type Final struct {
	DPI DPIClassifier
}

// Classify applies DPI plus the manual corrections.
func (f Final) Classify(fl *Flow) string {
	label := f.DPI.Classify(fl)
	switch {
	case label == "CISCOVPN":
		return "SSDP" // manual rule: CiscoVPN on the LAN is really SSDP
	case label == "STUN" && isGoogleSyncPort(fl):
		return "RTP" // controlled experiments showed Google sync is RTP
	case label == "STUN" && (fl.Key.DstPort == rtp.EchoPort || fl.Key.SrcPort == rtp.EchoPort):
		return "RTP"
	case label == "RTCP" && rtpPort(fl):
		return "RTP"
	case label == Unknown && fl.Key.DstPort == 56700:
		return "LIFX"
	}
	return label
}

// ClassifyPacket applies the corrected packet-level labels.
func (f Final) ClassifyPacket(p *layers.Packet) string {
	return ClassifyPacketSpec(p) // header-driven is ground truth at L2/L3
}

func rtpPort(f *Flow) bool {
	for _, port := range []uint16{f.Key.DstPort, f.Key.SrcPort} {
		if port == rtp.EchoPort || (port >= rtp.GooglePortLow && port <= rtp.GooglePortHigh) {
			return true
		}
	}
	return false
}
