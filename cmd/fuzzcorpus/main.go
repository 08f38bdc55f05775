// Command fuzzcorpus seeds the protocol decoders' fuzz corpora from frames
// captured off the simulated testbed. It boots a short chaos-flavoured lab
// (so the capture includes malformed frames), buckets transport payloads by
// protocol port, and writes deduplicated seeds in Go's fuzz corpus format
// into each decoder package's testdata/fuzz/FuzzDecode directory.
//
// Run from the repository root:
//
//	go run ./cmd/fuzzcorpus
//
// The output is deterministic (fixed seed), so regenerating produces the
// same corpus files; commit them alongside the fuzz targets.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"iotlan/internal/chaos"
	"iotlan/internal/netbios"
	"iotlan/internal/netx"
	"iotlan/internal/pcap"
	"iotlan/internal/stun"
	"iotlan/internal/testbed"
	"iotlan/internal/tlsx"
)

// maxPerBucket caps seeds per decoder; beyond this, extra inputs add corpus
// bulk without new coverage shapes.
const maxPerBucket = 40

type bucket struct {
	dir   string
	seen  map[string]bool
	seeds [][]byte
}

func (b *bucket) add(p []byte) {
	if len(p) == 0 || len(b.seeds) >= maxPerBucket || b.seen[string(p)] {
		return
	}
	b.seen[string(p)] = true
	b.seeds = append(b.seeds, append([]byte(nil), p...))
}

func main() {
	buckets := map[string]*bucket{}
	for _, name := range []string{
		"dnsmsg", "mdns", "ssdp", "coap", "tlsx", "tuya",
		"tplink", "netbios", "stun", "dhcp", "layers",
	} {
		buckets[name] = &bucket{
			dir:  filepath.Join("internal", name, "testdata", "fuzz", "FuzzDecode"),
			seen: map[string]bool{},
		}
	}

	// A chaos-flavoured capture: loss forces retransmission-like retries and
	// the corruptor writes truncated/bit-flipped frames into the capture, so
	// the corpus contains exactly the malformed shapes the decoders must
	// survive.
	plan, err := chaos.Profile("flaky")
	if err != nil {
		panic(err)
	}
	lab := testbed.New(1, testbed.WithChaos(plan))
	lab.Start()
	lab.RunIdle(6 * time.Minute)
	lab.Interact(12)

	idx := pcap.NewIndex(lab.Capture.All, 0)
	for i, rec := range idx.Records {
		if i%7 == 0 { // sample whole frames for the layers decoder
			buckets["layers"].add(rec.Data)
		}
		p := rec.Decode()
		if p.Err != nil || len(p.AppPayload) == 0 {
			continue
		}
		pay := p.AppPayload
		var sp, dp uint16
		switch {
		case p.HasUDP:
			sp, dp = p.UDP.SrcPort, p.UDP.DstPort
		case p.HasTCP:
			sp, dp = p.TCP.SrcPort, p.TCP.DstPort
		default:
			continue
		}
		on := func(port uint16) bool { return sp == port || dp == port }
		switch {
		case on(5353):
			buckets["dnsmsg"].add(pay)
			buckets["mdns"].add(pay)
		case on(53):
			buckets["dnsmsg"].add(pay)
		case on(1900):
			buckets["ssdp"].add(pay)
		case on(5683):
			buckets["coap"].add(pay)
		case on(6666) || on(6667):
			buckets["tuya"].add(pay)
		case on(9999):
			buckets["tplink"].add(pay)
		case on(137):
			buckets["netbios"].add(pay)
		case on(67) || on(68):
			buckets["dhcp"].add(pay)
		}
		if p.HasTCP && tlsx.IsTLS(pay) {
			buckets["tlsx"].add(pay)
		}
	}

	// NBNS responders only speak when queried, and nothing queries during an
	// idle run — craft the canonical NBSTAT exchange directly.
	for txid := uint16(1); txid <= 4; txid++ {
		buckets["netbios"].add(netbios.NBSTATQuery(txid))
		buckets["netbios"].add(netbios.StatusResponse(txid,
			[]string{"FUZZBOX", "WORKGROUP"}, netx.MAC{2, 0, 0, 0, byte(txid), 1}))
	}

	// No device in the catalog speaks STUN on the LAN (the classifier only
	// recognises it), so craft canonical seeds directly.
	for i, typ := range []uint16{stun.BindingRequest, stun.BindingResponse} {
		m := &stun.Message{Type: typ}
		for j := range m.TransactionID {
			m.TransactionID[j] = byte(i*12 + j)
		}
		buckets["stun"].add(m.Marshal())
		m.Attributes = []byte{0x00, 0x20, 0x00, 0x08, 0, 1, 0x21, 0x12, 0xc0, 0xa8, 0x0a, 0x05}
		buckets["stun"].add(m.Marshal())
	}

	names := make([]string, 0, len(buckets))
	for name := range buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := buckets[name]
		if err := os.MkdirAll(b.dir, 0o755); err != nil {
			panic(err)
		}
		for i, seed := range b.seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			path := filepath.Join(b.dir, fmt.Sprintf("seed-%03d", i))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				panic(err)
			}
		}
		fmt.Printf("%-8s %3d seeds → %s\n", name, len(b.seeds), b.dir)
	}
	fmt.Println("lab:", lab.Summary())
}
