// Package matter reads the Matter commissionable-node discovery records
// (CSA Matter 1.0 §4.3) that ride on mDNS. The paper's discussion (§7)
// singles Matter out: it is pitched as the privacy-aware cross-platform
// standard, yet "still considers the local network as a trusted environment
// and exposes MAC addresses in mDNS discovery". The spec builds a
// commissionable node's instance name from the upper-cased hex of its
// 48-bit MAC, so the exposure analysis checks observed labels for exactly
// that form.
package matter

import (
	"strconv"

	"iotlan/internal/netx"
)

// ExposesMAC reports whether a Matter mDNS instance name is a bare MAC — the
// §7 finding, checkable against any observed advertisement.
func ExposesMAC(instance string) (netx.MAC, bool) {
	if len(instance) != 12 {
		return netx.MAC{}, false
	}
	var mac netx.MAC
	for i := 0; i < 6; i++ {
		v, err := strconv.ParseUint(instance[2*i:2*i+2], 16, 8)
		if err != nil {
			return netx.MAC{}, false
		}
		mac[i] = byte(v)
	}
	return mac, true
}
