// Package classify reproduces the study's traffic-classification pipeline:
// RFC 6146 flow assembly, a tshark-like header/port classifier
// (SpecClassifier), an nDPI-like payload/heuristic classifier
// (DPIClassifier), the cross-comparison of Appendix C.2 (Figure 3), and the
// final manually-corrected labeller used for Figure 2.
package classify

import (
	"net/netip"
	"sort"
	"time"

	"iotlan/internal/layers"
	"iotlan/internal/pcap"
)

// FlowKey is the RFC 6146 5-tuple.
type FlowKey struct {
	Src     netip.Addr
	SrcPort uint16
	Dst     netip.Addr
	DstPort uint16
	Proto   string // "tcp" or "udp"
}

// Reverse returns the reply-direction key.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, SrcPort: k.DstPort, Dst: k.Src, DstPort: k.SrcPort, Proto: k.Proto}
}

// Flow is a chronologically ordered set of same-5-tuple segments/datagrams.
type Flow struct {
	Key      FlowKey
	First    time.Time
	Last     time.Time
	Packets  int
	Bytes    int
	Payloads [][]byte // first few non-empty payloads, for DPI
	// SrcMAC attributes the flow to a device.
	SrcMAC [6]byte
}

// maxDPIPayloads bounds retained payloads per flow.
const maxDPIPayloads = 4

// Assemble groups records into flows plus the non-flow (no transport layer)
// records, in capture order. Flow order is deterministic (first-seen). Each
// record is decoded into one reused packet; a flow keeps only values and
// payload slices of the record's own frame, so no parse outlives its
// iteration.
func Assemble(records []pcap.Record) (flows []*Flow, nonFlow []pcap.Record) {
	index := make(map[FlowKey]*Flow)
	var p layers.Packet
	for _, r := range records {
		p.DecodeInto(r.Data)
		proto, sp, dp := p.Transport()
		if proto == "" {
			nonFlow = append(nonFlow, r)
			continue
		}
		key := FlowKey{Src: p.SrcIP(), SrcPort: sp, Dst: p.DstIP(), DstPort: dp, Proto: proto}
		f, ok := index[key]
		if !ok {
			f = &Flow{Key: key, First: r.Time, SrcMAC: p.Eth.Src}
			index[key] = f
			flows = append(flows, f)
		}
		f.Last = r.Time
		f.Packets++
		f.Bytes += len(r.Data)
		if len(p.AppPayload) > 0 && len(f.Payloads) < maxDPIPayloads {
			f.Payloads = append(f.Payloads, p.AppPayload)
		}
	}
	return flows, nonFlow
}

// PairBidirectional returns, for each flow, the index of its reverse flow
// or -1; useful for request/response analyses.
func PairBidirectional(flows []*Flow) []int {
	byKey := make(map[FlowKey]int, len(flows))
	for i, f := range flows {
		byKey[f.Key] = i
	}
	out := make([]int, len(flows))
	for i, f := range flows {
		if j, ok := byKey[f.Key.Reverse()]; ok {
			out[i] = j
		} else {
			out[i] = -1
		}
	}
	return out
}

// LabelCount is one (label, flows) pair for report tables.
type LabelCount struct {
	Label string
	Count int
}

// CountLabels tallies labels into a deterministic descending list.
func CountLabels(labels []string) []LabelCount {
	m := map[string]int{}
	for _, l := range labels {
		m[l]++
	}
	out := make([]LabelCount, 0, len(m))
	for l, n := range m {
		out = append(out, LabelCount{l, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}
