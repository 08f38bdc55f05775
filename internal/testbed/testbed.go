// Package testbed assembles the MonIoTr-style lab: a router/AP with DHCP
// and a capture tap, the full 93-device catalog, platform peer wiring that
// produces the Figure 1/Figure 4 communication clusters, and the scripted
// interaction workload of §3.1.
package testbed

import (
	"fmt"
	"net/netip"
	"time"

	"iotlan/internal/chaos"
	"iotlan/internal/device"
	"iotlan/internal/dhcp"
	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/pcap"
	"iotlan/internal/resident"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
	"iotlan/internal/tplink"
)

// RouterIP is the lab gateway address (192.168.10.0/24 per Appendix C.1).
var RouterIP = netip.MustParseAddr("192.168.10.1")

// Lab is a running simulated testbed.
type Lab struct {
	Sched   *sim.Scheduler
	Net     *lan.Network
	Capture *pcap.Capture
	Router  *stack.Host
	DHCP    *dhcp.Server
	Devices []*device.Device

	// Chaos is the fault-injection engine; present even when the plan is
	// disabled so callers can read Faults() unconditionally.
	Chaos *chaos.Engine

	// Residents is the compiled household schedule, nil unless
	// WithResidents enabled one. Start schedules its events on the virtual
	// clock; see resident.go for the executor.
	Residents *resident.Schedule

	byName map[string]*device.Device
	// Interactions counts scripted interaction events (§3.1's 7,191).
	Interactions  int
	cInteractions *obs.Counter
}

// Telemetry returns the simulation-wide metrics/tracing hub.
func (l *Lab) Telemetry() *obs.Telemetry { return l.Sched.Telemetry }

// Option configures a Lab at construction time.
type Option func(*labConfig)

type labConfig struct {
	plan      chaos.Plan
	residents resident.Plan
}

// WithChaos enables deterministic fault injection under the given plan.
func WithChaos(plan chaos.Plan) Option {
	return func(c *labConfig) { c.plan = plan }
}

// WithResidents compiles and executes a persona-driven household schedule:
// diurnal device interactions, app sessions, occupancy-correlated sensor
// chatter, and longitudinal drift (devices added/retired, firmware
// updates). NewWith panics on an invalid plan (unknown persona name) —
// validate names against resident.PersonaNames() first.
func WithResidents(plan resident.Plan) Option {
	return func(c *labConfig) { c.residents = plan }
}

// New builds a lab with the full catalog on a deterministic seed.
func New(seed int64, opts ...Option) *Lab {
	return NewWith(seed, device.Catalog(), opts...)
}

// NewWith builds a lab from a custom profile list (subset labs for tests).
func NewWith(seed int64, profiles []*device.Profile, opts ...Option) *Lab {
	var cfg labConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sched := sim.NewScheduler(seed)
	network := lan.New(sched)
	capture := pcap.NewCapture()
	network.Tap(capture.Add)
	// The chaos engine attaches before any other construction so its corrupt
	// tap ordering (after the capture tap) is fixed and deterministic.
	eng := chaos.New(sched, network, cfg.plan)

	router := stack.NewHost(network, netx.MAC{0x02, 0x42, 0xc0, 0xa8, 0x0a, 0x01}, stack.DefaultPolicy)
	router.SetIPv4(RouterIP)
	server := dhcp.NewServer(router)

	lab := &Lab{
		Sched: sched, Net: network, Capture: capture,
		Router: router, DHCP: server, Chaos: eng,
		byName:        make(map[string]*device.Device),
		cInteractions: sched.Telemetry.Registry.Counter("testbed_interactions"),
	}
	sched.Telemetry.Registry.Gauge("testbed_devices").Set(int64(len(profiles)))
	for i, p := range profiles {
		mac := netx.MAC{p.OUI[0], p.OUI[1], p.OUI[2], 0x00, byte(i >> 8), byte(i)}
		// Devices that ignore scans also run quieter stacks.
		policy := stack.DefaultPolicy
		policy.RespondARPBroadcast = !p.SilentToBroadcastARP
		if !p.RespondsToScans {
			policy.RespondEcho = false
			policy.RespondUDPUnreachable = false
			policy.RespondProtoUnreachable = false
			policy.RespondTCPRst = false
		}
		policy.EnableIPv6 = p.IPv6
		host := stack.NewHost(network, mac, policy)
		d := device.New(p, host)
		// Stable addresses keep multi-day captures comparable.
		ip := RouterIP.As4()
		ip[3] = byte(10 + i)
		if int(ip[3]) < 10 { // wrapped past .255 — larger catalogs only
			ip[2]++
		}
		server.Reserved[mac] = netip.AddrFrom4(ip)
		lab.Devices = append(lab.Devices, d)
		lab.byName[p.Name] = d
	}
	lab.wirePeers()
	if cfg.residents.Enabled() {
		names := make([]string, len(profiles))
		for i, p := range profiles {
			names[i] = p.Name
		}
		sr, err := resident.Compile(seed, cfg.residents,
			resident.World{Devices: names, InteractionKinds: NumInteractionKinds})
		if err != nil {
			panic(fmt.Sprintf("testbed: %v", err))
		}
		lab.Residents = sr
	}
	return lab
}

// Device returns a device by catalog name, or nil.
func (l *Lab) Device(name string) *device.Device { return l.byName[name] }

// wirePeers connects same-platform devices (the Figure 4 clusters) and
// schedules their periodic control traffic.
func (l *Lab) wirePeers() {
	clusters := map[device.Platform][]*device.Device{}
	for _, d := range l.Devices {
		if p := d.Profile.Platform; p != device.PlatformNone {
			clusters[p] = append(clusters[p], d)
		}
	}
	for _, members := range clusters {
		for _, d := range members {
			for _, peer := range members {
				if peer != d {
					d.Peers = append(d.Peers, peer)
				}
			}
		}
	}
}

// Start boots every device, staggered to avoid synchronized DHCP storms,
// then schedules intra-platform control traffic.
func (l *Lab) Start() {
	for i, d := range l.Devices {
		d := d
		// Drift add-targets were "bought" mid-run: the resident schedule
		// first-joins them at their EventAdd time instead of boot.
		if l.Residents != nil && l.Residents.IsAdded(d.Profile.Name) {
			continue
		}
		l.Sched.AfterTagged("testbed", time.Duration(i)*300*time.Millisecond, d.Start)
	}
	l.Sched.AfterTagged("testbed", time.Minute, l.schedulePlatformTraffic)
	if l.Chaos.Plan.Churn != nil {
		devs := make([]chaos.Churnable, len(l.Devices))
		for i, d := range l.Devices {
			devs[i] = d
		}
		l.Chaos.StartChurn(devs)
	}
	if l.Residents != nil {
		l.startResidents()
	}
}

// schedulePlatformTraffic drives the TLS/RTP cluster traffic: each platform
// cluster has a coordinator (first member) dialing peers periodically, as
// the Amazon UDP graph (Fig. 4e) shows.
func (l *Lab) schedulePlatformTraffic() {
	clusters := map[device.Platform][]*device.Device{}
	var order []device.Platform
	for _, d := range l.Devices {
		if p := d.Profile.Platform; p != device.PlatformNone {
			if len(clusters[p]) == 0 {
				order = append(order, p)
			}
			clusters[p] = append(clusters[p], d)
		}
	}
	// Scheduling order must be deterministic: same seed, same trace.
	for _, platform := range order {
		members := clusters[platform]
		if len(members) < 2 {
			continue
		}
		coordinator := members[0]
		peers := members[1:]
		i := 0
		l.Sched.EveryTagged("testbed", 30*time.Second, 7*time.Minute, time.Minute, func() {
			peer := peers[i%len(peers)]
			i++
			if coordinator.IP().IsValid() && peer.IP().IsValid() {
				coordinator.DialPeerTLS(peer)
				if coordinator.Profile.RTPPort != 0 && peer.Profile.RTPPort != 0 {
					// Multi-room audio sync flows both ways (RTP + receiver
					// reports), so ~10% of devices source RTP (§4.1).
					coordinator.RTPSync(peer, 4)
					peer.RTPSync(coordinator, 2)
				}
			}
		})
	}
}

// RunIdle advances the lab with no human interaction — the 5-day idle
// capture of §3.1 (shorter windows reproduce the same per-protocol shape).
func (l *Lab) RunIdle(d time.Duration) { l.Sched.RunFor(d) }

// InteractionKind enumerates the scripted stimuli of §3.1.
type InteractionKind int

// Interaction kinds: companion-app control and voice-assistant commands.
const (
	InteractAppControl InteractionKind = iota
	InteractVoiceTPLink
	InteractVoiceCast
	InteractMultiRoomAudio
)

// NumInteractionKinds is the size of the scripted-stimulus repertoire.
const NumInteractionKinds = 4

// Interact performs n scripted interactions round-robin over the kinds and
// devices, advancing the clock 5 s per interaction like the lab's paced
// experiments (§3.1).
func (l *Lab) Interact(n int) {
	echos := l.platformMembers(device.PlatformAlexa)
	googles := l.platformMembers(device.PlatformGoogleHome)
	for i := 0; i < n; i++ {
		l.interactAs(InteractionKind(i%NumInteractionKinds), i, echos, googles)
		l.Interactions++
		l.cInteractions.Inc()
		l.Sched.RunFor(5 * time.Second)
	}
}

// InteractOnce performs a single scripted interaction without advancing the
// clock — the resident scheduler's event-driven entry point. Platform
// members are re-resolved per call, so devices that joined, crashed, or
// retired since the last interaction are seen.
func (l *Lab) InteractOnce(kind InteractionKind, i int) {
	l.interactAs(kind, i,
		l.platformMembers(device.PlatformAlexa),
		l.platformMembers(device.PlatformGoogleHome))
	l.Interactions++
	l.cInteractions.Inc()
}

// interactAs performs one scripted stimulus of the given kind; i varies the
// participating devices round-robin.
func (l *Lab) interactAs(kind InteractionKind, i int, echos, googles []*device.Device) {
	switch kind {
	case InteractAppControl:
		// A companion app toggles the Hue hub over its HTTP API — here
		// the router plays the phone's role to keep Interact
		// self-contained; the app package models real phones.
		if hue := l.Device("hue-hub"); hue != nil && hue.IP().IsValid() {
			conn := l.Router.DialTCP(hue.IP(), 80)
			conn.OnConnect = func(c *stack.TCPConn) {
				c.Send([]byte("GET /api/config HTTP/1.1\r\nHost: hue\r\n\r\n"))
			}
			conn.OnData = func(c *stack.TCPConn, _ []byte) { c.Close() }
		}
	case InteractVoiceTPLink:
		// "Alexa, turn on the plug": an Echo controls the TP-Link plug.
		if len(echos) > 0 {
			if plug := l.Device("tplink-plug"); plug != nil && plug.IP().IsValid() {
				echo := echos[i%len(echos)]
				tplink.Control(echo.Host, plug.IP(), i%2 == 0, nil)
			}
		}
	case InteractVoiceCast:
		// "Hey Google, play …": hub dials a Chromecast peer over TLS.
		if len(googles) >= 2 {
			googles[i%len(googles)].DialPeerTLS(googles[(i+1)%len(googles)])
		}
	case InteractMultiRoomAudio:
		if len(echos) >= 2 {
			echos[0].RTPSync(echos[1+i%(len(echos)-1)], 8)
		}
	}
}

func (l *Lab) platformMembers(p device.Platform) []*device.Device {
	var out []*device.Device
	for _, d := range l.Devices {
		if d.Profile.Platform == p && d.IP().IsValid() {
			out = append(out, d)
		}
	}
	return out
}

// AddHost attaches an auxiliary host (phone, scanner, honeypot) with a
// stable address outside the device range.
func (l *Lab) AddHost(lastOctet byte, mac netx.MAC) *stack.Host {
	h := stack.NewHost(l.Net, mac, stack.DefaultPolicy)
	h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, lastOctet}))
	return h
}

// Summary prints quick stats for CLI tools. Counts come from the metrics
// registry so the line reflects exactly what -metrics would export —
// including frames the LAN dropped, which Capture.Len() never sees.
func (l *Lab) Summary() string {
	reg := l.Sched.Telemetry.Registry
	s := fmt.Sprintf("devices=%d frames=%d dropped=%d events=%d pending=%d interactions=%d virtual=%s",
		len(l.Devices),
		reg.CounterValue("lan_frames_delivered"),
		reg.Total("lan_frames_dropped"),
		reg.Total("sim_events_processed"),
		l.Sched.Pending(),
		reg.CounterValue("testbed_interactions"),
		l.Sched.Now().Sub(sim.Epoch).Truncate(time.Second))
	if l.Chaos.Plan.Enabled() {
		s += fmt.Sprintf(" chaos=%s faults=%d", l.Chaos.Plan, l.Chaos.Faults())
	}
	if l.Residents != nil {
		s += fmt.Sprintf(" residents=[%s] resident_events=%d",
			l.Residents.Plan, reg.Total("resident_events"))
	}
	return s
}
