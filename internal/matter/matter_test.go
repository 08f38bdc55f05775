package matter

import (
	"testing"

	"iotlan/internal/netx"
)

func TestCommissionableInstanceIsMAC(t *testing.T) {
	mac := netx.MAC{0xfc, 0x65, 0xde, 0x12, 0x34, 0x56}
	// A commissionable node's instance name is its MAC's upper-case hex.
	inst := mac.Compact()
	if inst != "FC65DE123456" {
		t.Fatalf("instance %q", inst)
	}
	got, ok := ExposesMAC(inst)
	if !ok || got != mac {
		t.Fatalf("ExposesMAC(%q) = %v %v — §7's Matter finding must hold", inst, got, ok)
	}
}

func TestExposesMACRejectsNonMAC(t *testing.T) {
	for _, s := range []string{"", "XYZ", "0123456789ABCDEF-0123456789ABCDEF", "GGGGGGGGGGGG"} {
		if _, ok := ExposesMAC(s); ok {
			t.Errorf("ExposesMAC(%q) accepted", s)
		}
	}
}
