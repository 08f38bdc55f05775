// Package app models the study's mobile-app pipeline: the 2,335-app dataset
// (987 IoT companions + 1,348 regular apps, §3.2), the Android permission
// model whose discovery-protocol side channel §2.1 demonstrates, the
// third-party SDK behaviours of §6.2 (innosdk, AppDynamics, umlaut,
// MyTracker), and an AppCensus-like instrumented runtime that logs
// permission-protected API access and every identifier leaving the phone.
package app

import "fmt"

// Permission is an Android permission name.
type Permission string

// Permissions relevant to local-network access (§2.1).
const (
	PermInternet          Permission = "android.permission.INTERNET"
	PermMulticast         Permission = "android.permission.CHANGE_WIFI_MULTICAST_STATE"
	PermCoarseLocation    Permission = "android.permission.ACCESS_COARSE_LOCATION"
	PermFineLocation      Permission = "android.permission.ACCESS_FINE_LOCATION"
	PermNearbyWifiDevices Permission = "android.permission.NEARBY_WIFI_DEVICES"
	PermAccessWifiState   Permission = "android.permission.ACCESS_WIFI_STATE"
)

// APICall records one permission-protected API access attempt, the
// AppCensus-style visibility of §3.2.
type APICall struct {
	App         string
	API         string // "WifiInfo.getSSID", "WifiInfo.getBSSID", "NsdManager.discoverServices", …
	Required    []Permission
	Granted     bool
	SideStepped bool // data obtained anyway via a discovery side channel
}

// AndroidVersion selects the permission regime.
type AndroidVersion int

// Permission regimes the paper contrasts.
const (
	Android9  AndroidVersion = 9  // SSID needs location permission
	Android13 AndroidVersion = 13 // SSID needs NEARBY_WIFI_DEVICES
)

// CheckSSIDAccess evaluates the official WifiInfo SSID/BSSID API under the
// given regime.
func CheckSSIDAccess(v AndroidVersion, held []Permission) bool {
	has := func(p Permission) bool {
		for _, h := range held {
			if h == p {
				return true
			}
		}
		return false
	}
	switch v {
	case Android13:
		return has(PermNearbyWifiDevices)
	default: // Android 9–12
		return has(PermCoarseLocation) || has(PermFineLocation)
	}
}

// CanScanDiscovery evaluates the §2.1 side channel: NsdManager-style mDNS
// and raw-socket SSDP need only normal permissions.
func CanScanDiscovery(held []Permission) bool {
	hasInternet, hasMulticast := false, false
	for _, p := range held {
		switch p {
		case PermInternet:
			hasInternet = true
		case PermMulticast:
			hasMulticast = true
		}
	}
	return hasInternet && hasMulticast
}

// String implements fmt.Stringer.
func (c APICall) String() string {
	return fmt.Sprintf("%s %s granted=%v sidestep=%v", c.App, c.API, c.Granted, c.SideStepped)
}
