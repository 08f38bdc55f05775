// Command iotclassify classifies the packets in a pcap file with both the
// tshark-like and nDPI-like engines and prints the per-flow labels, the
// Appendix C.2 agreement matrix, and the corrected labels.
//
// Usage:
//
//	iotclassify capture.pcap
//	iotlab -out pcaps/ && iotclassify pcaps/*.pcap
package main

import (
	"flag"
	"fmt"
	"os"

	"iotlan/internal/classify"
	"iotlan/internal/layers"
	"iotlan/internal/pcap"
)

func main() {
	verbose := flag.Bool("v", false, "print every flow's labels")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: iotclassify [-v] capture.pcap [more.pcap...]")
		os.Exit(2)
	}
	var records []pcap.Record
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		recs, err := pcap.ReadFile(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		records = append(records, recs...)
	}
	local := pcap.FilterLocal(records)
	fmt.Printf("%d packets read, %d local\n\n", len(records), len(local))

	flows, nonFlow := classify.Assemble(local)
	spec, dpi, final := classify.SpecClassifier{}, classify.DPIClassifier{}, classify.Final{}
	if *verbose {
		fmt.Printf("%-48s %-18s %-18s %-18s\n", "flow", "tshark-like", "nDPI-like", "corrected")
		for _, f := range flows {
			key := fmt.Sprintf("%s:%d → %s:%d/%s", f.Key.Src, f.Key.SrcPort, f.Key.Dst, f.Key.DstPort, f.Key.Proto)
			fmt.Printf("%-48s %-18s %-18s %-18s\n", key, spec.Classify(f), dpi.Classify(f), final.Classify(f))
		}
		fmt.Println()
	}

	var finalLabels []string
	for _, f := range flows {
		finalLabels = append(finalLabels, final.Classify(f))
	}
	var p layers.Packet
	for _, r := range nonFlow {
		p.DecodeInto(r.Data)
		finalLabels = append(finalLabels, final.ClassifyPacket(&p))
	}
	fmt.Println("corrected label distribution:")
	for _, lc := range classify.CountLabels(finalLabels) {
		fmt.Printf("  %-20s %6d\n", lc.Label, lc.Count)
	}

	c := classify.Compare(flows, nonFlow)
	sp, dp, dis, nei := c.Fractions()
	fmt.Printf("\nagreement matrix (Appendix C.2 / Figure 3):\n%s\n", c.Render())
	fmt.Printf("tshark-labeled %.1f%%  nDPI-labeled %.1f%%  disagree %.1f%%  neither %.1f%%\n",
		100*sp, 100*dp, 100*dis, 100*nei)
}
