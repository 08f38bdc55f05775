// Package inspector simulates the IoT Inspector crowdsourced dataset
// (§3.3): thousands of volunteer households whose local traffic was captured
// via ARP spoofing — device IDs as salted HMAC-SHA256 of the MAC, 5-second
// byte-count windows, raw mDNS and SSDP response payloads, DHCP hostnames,
// and noisy user-provided labels. The generator is seeded and draws device
// populations from a product catalog whose identifier-exposure classes
// reproduce Table 2's structure.
package inspector

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotlan/internal/engine"
	"iotlan/internal/netx"
)

// Product is one vendor/category combination in the crowdsourced world.
type Product struct {
	Vendor   string
	Category string
	// Exposure flags drive what the product's mDNS/SSDP responses contain —
	// the Table 2 identifier classes.
	ExposesName bool // user first name in discovery payloads
	ExposesUUID bool
	ExposesMAC  bool
	// Popularity weights household assignment (power-law-ish).
	Popularity int
}

// Name returns the "vendor-category" product key the paper counts.
func (p Product) Name() string { return p.Vendor + "/" + p.Category }

// Device is one observed device in a household.
type Device struct {
	// ID is HMAC-SHA256(MAC, per-user salt), as IoT Inspector computes.
	ID string
	// OUI is the only MAC metadata collected directly.
	OUI netx.OUI
	// DHCPHostname is the hostname field from DHCP requests.
	DHCPHostname string
	// UserLabel is the crowdsourced (noisy) device label.
	UserLabel string
	// MDNS and SSDP hold raw response payload strings.
	MDNS []string
	SSDP []string
	// Windows are 5-second traffic counters.
	Windows []TrafficWindow

	// Product is generation ground truth, used only to validate inference.
	Product Product
	mac     netx.MAC
}

// TrafficWindow is a 5-second byte counter, the only flow telemetry the
// dataset holds.
type TrafficWindow struct {
	Start    time.Time
	BytesIn  int
	BytesOut int
	// PeerLocal marks whether the remote endpoint was on the LAN.
	PeerLocal bool
}

// Household groups one user's devices.
type Household struct {
	ID      string
	Devices []*Device
}

// Dataset is the full crowdsourced corpus.
type Dataset struct {
	Households []*Household
}

// Devices counts all devices.
func (d *Dataset) Devices() int {
	n := 0
	for _, h := range d.Households {
		n += len(h.Devices)
	}
	return n
}

// catalog builds the product world: 323 products across 199 vendors for the
// full dataset, with exposure classes matching Table 2's row structure.
func catalog(rng *rand.Rand) []Product {
	categories := []string{"camera", "plug", "bulb", "speaker", "tv", "hub", "thermostat", "doorbell", "printer", "scale", "vacuum"}
	var products []Product
	vendorID := 0
	addVendor := func(n int, exposeName, exposeUUID, exposeMAC bool, popularity int) {
		for v := 0; v < n; v++ {
			vendorID++
			vendor := fmt.Sprintf("vendor%03d", vendorID)
			nProducts := 1 + rng.Intn(3)
			for p := 0; p < nProducts; p++ {
				products = append(products, Product{
					Vendor:      vendor,
					Category:    categories[rng.Intn(len(categories))],
					ExposesName: exposeName,
					ExposesUUID: exposeUUID,
					ExposesMAC:  exposeMAC,
					Popularity:  1 + rng.Intn(popularity),
				})
			}
		}
	}
	// Class proportions follow Table 2: about half the products expose
	// nothing; UUID-only is the biggest exposing class; MAC exposure and
	// combinations are smaller; a single product (a Roku-like TV) exposes
	// all three.
	addVendor(100, false, false, false, 20) // no exposure (≈154 products)
	addVendor(52, false, true, false, 30)   // UUID only
	addVendor(14, false, false, true, 10)   // MAC only
	addVendor(8, true, true, false, 4)      // name+UUID
	addVendor(24, false, true, true, 12)    // UUID+MAC
	products = append(products, Product{
		Vendor: "rokulike", Category: "tv",
		ExposesName: true, ExposesUUID: true, ExposesMAC: true, Popularity: 1,
	})
	return products
}

var firstNames = []string{"Jane", "John", "Maria", "Wei", "Aisha", "Carlos", "Emma", "Noah", "Olivia", "Liam"}

// Generate builds the corpus: households ×devices with payloads. The
// defaults reproduce the paper's population (3,893 households, 13,487
// devices, ~199 vendors / 323 products). Equivalent to GenerateParallel
// with one worker.
func Generate(seed int64, households int) *Dataset {
	return GenerateParallel(seed, households, 1)
}

// Generator draws single households on demand from a fixed seed. Because
// every household has its own rng stream (engine.SubSeed(seed, index)),
// Household(i) is independent of every other index: a caller can generate
// any subset, in any order, from any number of goroutines, and each
// household is byte-identical to ds.Households[i] of Generate(seed, n) for
// any n > i. This is what lets a million-household load run stream uploads
// without ever materializing the corpus.
type Generator struct {
	seed     int64
	products []Product
	totalPop int
}

// NewGenerator derives the shared product world (ground truth) from the
// base seed and returns an on-demand household source.
func NewGenerator(seed int64) *Generator {
	products := catalog(rand.New(rand.NewSource(seed)))
	totalPop := 0
	for _, p := range products {
		totalPop += p.Popularity
	}
	return &Generator{seed: seed, products: products, totalPop: totalPop}
}

// Household generates household index i. Safe for concurrent use.
func (g *Generator) Household(i int) *Household {
	rng := rand.New(rand.NewSource(engine.SubSeed(g.seed, uint64(i))))
	return generateHousehold(rng, i, g.products, g.totalPop)
}

// GenerateParallel shards corpus generation across workers (values < 1 mean
// one per CPU). Every household draws from its own rng seeded by
// engine.SubSeed(seed, household), so generation is order-independent: any
// worker count — including the sequential path — produces a byte-identical
// dataset for a fixed seed.
func GenerateParallel(seed int64, households, workers int) *Dataset {
	g := NewGenerator(seed)
	ds := &Dataset{Households: make([]*Household, households)}
	engine.ForEachShard(households, workers, func(_ int, r engine.Range) {
		for h := r.Start; h < r.End; h++ {
			ds.Households[h] = g.Household(h)
		}
	})
	return ds
}

// generateHousehold draws one household's devices from its private rng.
func generateHousehold(rng *rand.Rand, h int, products []Product, totalPop int) *Household {
	pickProduct := func() Product {
		r := rng.Intn(totalPop)
		for _, p := range products {
			r -= p.Popularity
			if r < 0 {
				return p
			}
		}
		return products[len(products)-1]
	}
	start := time.Date(2019, 4, 12, 0, 0, 0, 0, time.UTC)
	salt := make([]byte, 16)
	rng.Read(salt)
	hh := &Household{ID: fmt.Sprintf("user%05d", h)}
	owner := firstNames[rng.Intn(len(firstNames))]
	// Median 3 devices per household (§6.3): geometric-ish 1..12.
	n := 1 + rng.Intn(3) + rng.Intn(3)
	// Each device's windows are built in this scratch slice and stored at
	// their exact length, so the dataset keeps no spare capacity.
	var windows []TrafficWindow
	for d := 0; d < n; d++ {
		p := pickProduct()
		var mac netx.MAC
		rng.Read(mac[:])
		mac[0] &^= 0x01 // unicast
		dev := &Device{
			OUI:     mac.OUI(),
			Product: p,
			mac:     mac,
		}
		m := hmac.New(sha256.New, salt)
		m.Write(mac[:])
		dev.ID = fmt.Sprintf("%x", m.Sum(nil))[:32]
		dev.DHCPHostname = fmt.Sprintf("%s-%s", p.Vendor, mac.Tail(2))
		dev.UserLabel = userLabel(rng, p)
		uuid := deriveUUID(hh.ID, d, mac)
		// ~5% of devices ship a vendor-default UUID shared by the whole
		// product line (buggy firmware does this in the wild) — the
		// reason Table 2's uniqueness tops out around 94–96%, not 100%.
		if rng.Intn(20) == 0 {
			sum := sha256.Sum256([]byte("default:" + p.Name()))
			uuid = fmt.Sprintf("%x-%x-%x-%x-%x", sum[0:4], sum[4:6], sum[6:8], sum[8:10], sum[10:16])
		}
		if p.ExposesMAC && rng.Intn(25) == 0 {
			// A shared dummy adapter address, same idea.
			mac = netx.MAC{p.Vendor[0], p.Vendor[1], p.Vendor[2], 0xde, 0xad, 0x01}
			dev.OUI = mac.OUI()
		}
		renderPayloads(dev, p, owner, uuid, mac)
		// A few hours of 5-second windows, sparse.
		t := start.Add(time.Duration(rng.Intn(1000)) * time.Hour)
		windows = windows[:0]
		for w := 0; w < 20+rng.Intn(60); w++ {
			windows = append(windows, TrafficWindow{
				Start:     t.Add(time.Duration(w) * 5 * time.Second),
				BytesIn:   rng.Intn(4000),
				BytesOut:  rng.Intn(2000),
				PeerLocal: rng.Intn(3) == 0,
			})
		}
		dev.Windows = make([]TrafficWindow, len(windows))
		copy(dev.Windows, windows)
		hh.Devices = append(hh.Devices, dev)
	}
	return hh
}

// deriveUUID builds a stable per-device UUID; for MAC-exposing products the
// UUID embeds the MAC, like Roku's (Table 2's last row).
func deriveUUID(user string, idx int, mac netx.MAC) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", user, idx)))
	return fmt.Sprintf("%x-%x-%x-%x-%x", sum[0:4], sum[4:6], sum[6:8], sum[8:10], mac[:])
}

// userLabel produces crowdsourced labels with realistic noise: misspellings,
// free-form text, or empty.
func userLabel(rng *rand.Rand, p Product) string {
	switch rng.Intn(5) {
	case 0:
		return "" // user never labeled it
	case 1:
		// Misspelled vendor.
		v := p.Vendor
		if len(v) > 3 {
			v = v[:len(v)-1]
		}
		return v + " " + p.Category
	case 2:
		return strings.ToUpper(p.Vendor)
	default:
		return p.Vendor + " " + p.Category
	}
}

// renderPayloads fills MDNS/SSDP response strings per the product's
// exposure class.
func renderPayloads(dev *Device, p Product, owner, uuid string, mac netx.MAC) {
	base := fmt.Sprintf("%s %s", p.Vendor, p.Category)
	name := base
	if p.ExposesName {
		name = fmt.Sprintf("%s - %s's Room", base, owner)
	}
	mdns := fmt.Sprintf("%s._device-info._tcp.local TXT model=%s", name, p.Category)
	ssdp := fmt.Sprintf("HTTP/1.1 200 OK\r\nSERVER: Linux UPnP/1.0\r\nname: %s\r\n", name)
	if p.ExposesUUID {
		ssdp += fmt.Sprintf("USN: uuid:%s\r\n", uuid)
		mdns += " id=" + uuid
	}
	if p.ExposesMAC {
		ssdp += fmt.Sprintf("serialNumber: %s\r\n", mac)
		mdns += " mac=" + mac.String()
	}
	dev.MDNS = []string{mdns}
	dev.SSDP = []string{ssdp}
}
