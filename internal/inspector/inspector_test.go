package inspector

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGeneratePopulation(t *testing.T) {
	ds := Generate(1, 500)
	if len(ds.Households) != 500 {
		t.Fatalf("households: %d", len(ds.Households))
	}
	n := ds.Devices()
	// Median ~3 devices/household.
	if n < 1000 || n > 3000 {
		t.Fatalf("devices: %d for 500 households", n)
	}
	products := map[string]bool{}
	vendors := map[string]bool{}
	for _, h := range ds.Households {
		for _, d := range h.Devices {
			products[d.Product.Name()] = true
			vendors[d.Product.Vendor] = true
		}
	}
	if len(vendors) < 100 {
		t.Fatalf("vendor diversity too low: %d", len(vendors))
	}
	if len(products) < 150 {
		t.Fatalf("product diversity too low: %d", len(products))
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := Generate(9, 50), Generate(9, 50)
	if a.Devices() != b.Devices() {
		t.Fatal("device counts differ")
	}
	for i, h := range a.Households {
		for j, d := range h.Devices {
			if d.ID != b.Households[i].Devices[j].ID {
				t.Fatalf("device IDs diverge at %d/%d", i, j)
			}
		}
	}
}

func TestGenerateParallelByteIdenticalToSequential(t *testing.T) {
	for _, seed := range []int64{1, 42, 1337} {
		seq, err := json.Marshal(GenerateParallel(seed, 300, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := json.Marshal(GenerateParallel(seed, 300, workers))
			if err != nil {
				t.Fatal(err)
			}
			if string(seq) != string(par) {
				t.Fatalf("seed %d: %d-worker dataset differs from sequential", seed, workers)
			}
		}
	}
}

// TestWindowsStoredAtExactLength: a generated device's windows carry no
// spare capacity, whichever entry point generated it.
func TestWindowsStoredAtExactLength(t *testing.T) {
	hs := GenerateParallel(1, 200, 4).Households
	hs = append(hs, NewGenerator(1).Household(7))
	for _, h := range hs {
		for _, d := range h.Devices {
			if len(d.Windows) == 0 || cap(d.Windows) != len(d.Windows) {
				t.Fatalf("%s: %d windows in a slice of capacity %d", h.ID, len(d.Windows), cap(d.Windows))
			}
		}
	}
}

func TestDeviceIDIsHMACNotMAC(t *testing.T) {
	ds := Generate(1, 10)
	for _, h := range ds.Households {
		for _, d := range h.Devices {
			if len(d.ID) != 32 {
				t.Fatalf("ID length %d", len(d.ID))
			}
			if strings.Contains(d.ID, ":") {
				t.Fatal("ID looks like a raw MAC")
			}
		}
	}
}

func TestExposureClassesRendered(t *testing.T) {
	ds := Generate(1, 800)
	var withName, withUUID, withMAC, withNone int
	for _, h := range ds.Households {
		for _, d := range h.Devices {
			payload := strings.Join(d.SSDP, " ") + strings.Join(d.MDNS, " ")
			hasName := strings.Contains(payload, "'s Room")
			hasUUID := strings.Contains(payload, "uuid:")
			hasMAC := strings.Contains(payload, "serialNumber:")
			if hasName {
				withName++
			}
			if hasUUID {
				withUUID++
			}
			if hasMAC {
				withMAC++
			}
			if !hasName && !hasUUID && !hasMAC {
				withNone++
			}
			// Exposure must match the product class.
			if hasName != d.Product.ExposesName || hasUUID != d.Product.ExposesUUID || hasMAC != d.Product.ExposesMAC {
				t.Fatalf("payload/class mismatch for %s: %q", d.Product.Name(), payload)
			}
		}
	}
	total := ds.Devices()
	if withNone < total/5 {
		t.Errorf("no-exposure class too small: %d/%d", withNone, total)
	}
	if withUUID <= withMAC {
		t.Errorf("UUID exposure (%d) should dominate MAC exposure (%d), like Table 2", withUUID, withMAC)
	}
	if withName >= withUUID {
		t.Errorf("name exposure (%d) should be rare vs UUID (%d)", withName, withUUID)
	}
}

func TestMACExposingUUIDEmbedsMAC(t *testing.T) {
	// Roku-like: the MAC is part of the UUID (Table 2's last row).
	ds := Generate(1, 2000)
	found := false
	for _, h := range ds.Households {
		for _, d := range h.Devices {
			if d.Product.ExposesUUID && d.Product.ExposesMAC {
				payload := strings.Join(d.SSDP, " ")
				mac := strings.ReplaceAll(macOf(d), ":", "")
				if strings.Contains(strings.ReplaceAll(payload, ":", ""), mac) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no UUID+MAC device embeds its MAC")
	}
}

func macOf(d *Device) string { return d.mac.String() }

func TestIdentifyRecoverVendors(t *testing.T) {
	ds := Generate(1, 300)
	acc := Accuracy(ds)
	if acc < 0.8 {
		t.Fatalf("identity inference accuracy %.2f, want ≥0.8", acc)
	}
}

func TestIdentifyUsesMultipleSources(t *testing.T) {
	ds := Generate(1, 50)
	confident := 0
	total := 0
	for _, h := range ds.Households {
		for _, d := range h.Devices {
			total++
			id := Identify(d)
			if id.Confident {
				confident++
				if !strings.Contains(id.Source, ",") {
					t.Fatalf("confident identity with single source: %+v", id)
				}
			}
		}
	}
	if confident < total/2 {
		t.Fatalf("only %d/%d confident identifications", confident, total)
	}
}

func TestTrafficWindows(t *testing.T) {
	ds := Generate(1, 20)
	for _, h := range ds.Households {
		for _, d := range h.Devices {
			if len(d.Windows) == 0 {
				t.Fatal("device without traffic windows")
			}
			for i := 1; i < len(d.Windows); i++ {
				gap := d.Windows[i].Start.Sub(d.Windows[i-1].Start)
				if gap != 5*1e9 {
					t.Fatalf("window spacing %v, want 5s", gap)
				}
			}
		}
	}
}

// TestGeneratorMatchesGenerate: on-demand single-household generation is
// byte-identical (on the wire) to the same index of a batch Generate, in any
// order, for any corpus size — the property the streaming load generator and
// the sharded serving tests both lean on.
func TestGeneratorMatchesGenerate(t *testing.T) {
	const seed = 3
	ds := Generate(seed, 40)
	g := NewGenerator(seed)
	for _, i := range []int{39, 0, 17, 17, 5} { // out of order, repeated
		want, err := json.Marshal(ds.Households[i].Wire())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(g.Household(i).Wire())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("household %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}
