package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"iotlan/internal/device"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
)

// IntervalRow summarises one device's discovery cadence on one protocol —
// the §5.1 "Discovery Intervals" analysis.
type IntervalRow struct {
	Device   string
	Vendor   string
	Protocol string
	// Median is the median inter-transmission gap.
	Median time.Duration
	// Count is the number of transmissions observed.
	Count int
}

// DiscoveryIntervals measures per-device, per-protocol multicast/broadcast
// discovery cadences from a capture.
func DiscoveryIntervals(records []pcap.Record, devices []*device.Device) []IntervalRow {
	byMAC := map[netx.MAC]*device.Device{}
	for _, d := range devices {
		byMAC[d.MAC()] = d
	}
	type key struct {
		dev   *device.Device
		proto string
	}
	times := map[key][]time.Time{}
	var p layers.Packet
	for _, r := range records {
		p.DecodeInto(r.Data)
		if !p.HasUDP || !p.Eth.Dst.IsMulticast() {
			continue
		}
		proto, ok := discoveryPorts[p.UDP.DstPort]
		if !ok {
			continue
		}
		// For mDNS, measure active queries only (QR=0): multicast responses
		// follow other devices' query schedules, not this device's cadence.
		if proto == "mDNS" {
			if len(p.AppPayload) < 3 || p.AppPayload[2]&0x80 != 0 {
				continue
			}
		}
		// For SSDP, measure M-SEARCH cadence (the §5.1 numbers), skipping
		// NOTIFY presence announcements.
		if proto == "SSDP" && !strings.HasPrefix(string(p.AppPayload), "M-SEARCH") {
			continue
		}
		d, ok := byMAC[p.Eth.Src]
		if !ok {
			continue
		}
		k := key{dev: d, proto: proto}
		times[k] = append(times[k], r.Time)
	}
	var rows []IntervalRow
	for k, ts := range times {
		if len(ts) < 3 {
			continue
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
		var gaps []time.Duration
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i].Sub(ts[i-1]))
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
		rows = append(rows, IntervalRow{
			Device:   k.dev.Profile.Name,
			Vendor:   k.dev.Profile.Vendor,
			Protocol: k.proto,
			Median:   gaps[len(gaps)/2],
			Count:    len(ts),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Device != rows[j].Device {
			return rows[i].Device < rows[j].Device
		}
		return rows[i].Protocol < rows[j].Protocol
	})
	return rows
}

// VendorMedian returns the median discovery interval across a vendor's
// devices for one protocol (e.g. Google SSDP ≈ 20 s, Echo SSDP ≈ 2–3 h).
func VendorMedian(rows []IntervalRow, vendor, proto string) (time.Duration, bool) {
	var meds []time.Duration
	for _, r := range rows {
		if r.Vendor == vendor && r.Protocol == proto {
			meds = append(meds, r.Median)
		}
	}
	if len(meds) == 0 {
		return 0, false
	}
	sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
	return meds[len(meds)/2], true
}

// RenderIntervals prints the interval rows.
func RenderIntervals(rows []IntervalRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-10s %-8s %12s %7s\n", "device", "vendor", "proto", "median", "count")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %-10s %-8s %12s %7d\n",
			r.Device, r.Vendor, r.Protocol, r.Median.Truncate(time.Second), r.Count)
	}
	return sb.String()
}
