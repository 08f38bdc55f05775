package device

import (
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"iotlan/internal/coap"
	"iotlan/internal/dhcp"
	"iotlan/internal/httpx"
	"iotlan/internal/layers"
	"iotlan/internal/mdns"
	"iotlan/internal/netbios"
	"iotlan/internal/netx"
	"iotlan/internal/obs"
	"iotlan/internal/rtp"
	"iotlan/internal/ssdp"
	"iotlan/internal/stack"
	"iotlan/internal/telnetx"
	"iotlan/internal/tlsx"
	"iotlan/internal/tplink"
	"iotlan/internal/tuya"
)

// Device is a running simulated device: a Profile bound to a network host.
type Device struct {
	Profile *Profile
	Host    *stack.Host

	// UUID is the device's stable unique identifier, derived
	// deterministically from its name (exposed via SSDP USN and mDNS TXT).
	UUID string
	// Serial is the manufacturing serial; several vendors set it to the MAC
	// (Table 5's Amcrest example).
	Serial string

	// Peers are same-platform devices this one exchanges control traffic
	// with; the testbed wires them after all devices join (Figure 4
	// clusters).
	Peers []*Device

	mdnsResp *mdns.Responder
	ssdpResp *ssdp.Responder

	// Started reports whether Start has run.
	Started bool
	// crashed marks the device as down (chaos churn); see Crash/Restart.
	crashed bool
	// Retired marks the device as permanently removed (resident drift);
	// unlike a crash it never restarts. See Retire.
	Retired bool
	// FirmwareRev counts applied firmware updates (0 = factory image); it
	// shows in the SSDP Server banner's advertised version.
	FirmwareRev int

	// tuyaDev is the serving Tuya endpoint, kept so a firmware update can
	// flip its wire behaviour (plaintext 3.1 → encrypted 3.3) mid-run.
	tuyaDev *tuya.Device

	// dhcpClient is the device's DHCP client, kept so a restart can re-run
	// the lease exchange.
	dhcpClient *dhcp.Client

	// msg caches device_messages{proto=...} counter handles; the series are
	// shared across all devices (the registry dedups by key), so they count
	// LAN-wide messages per protocol.
	msg map[string]*obs.Counter
}

// MAC returns the device's hardware address.
func (d *Device) MAC() netx.MAC { return d.Host.MAC() }

// IP returns the device's IPv4 address.
func (d *Device) IP() netip.Addr { return d.Host.IPv4() }

// New binds a profile to a fresh host on the network behind the given
// scheduler-owning stack. The MAC is derived from the profile OUI and index.
func New(p *Profile, h *stack.Host) *Device {
	d := &Device{Profile: p, Host: h}
	sum := md5.Sum([]byte("iotlan-uuid:" + p.Name))
	d.UUID = fmt.Sprintf("%x-%x-%x-%x-%x", sum[0:4], sum[4:6], sum[6:8], sum[8:10], sum[10:16])
	if p.Category == Surveillance || p.Vendor == "Amcrest" {
		d.Serial = d.MAC().String() // cameras expose the MAC as serial
	} else {
		d.Serial = strings.ToUpper(fmt.Sprintf("%x", sum[2:8]))
	}
	return d
}

// count records n protocol messages under device_messages{proto=...}.
func (d *Device) count(proto string, n uint64) {
	if d.msg == nil {
		d.msg = make(map[string]*obs.Counter)
	}
	c, ok := d.msg[proto]
	if !ok {
		c = d.Host.Sched.Telemetry.Registry.Counter("device_messages", "proto", proto)
		d.msg[proto] = c
	}
	c.Add(n)
}

// Hostname renders the device's DHCP/mDNS hostname per its policy.
func (d *Device) Hostname() string {
	p := d.Profile
	switch p.HostnameKind {
	case HostnameModelMAC:
		return fmt.Sprintf("%s-%s", sanitize(p.Model), d.MAC().Compact())
	case HostnameVendorTail:
		return fmt.Sprintf("%s-%s", sanitize(p.Vendor), d.MAC().Tail(3))
	case HostnameDisplay:
		return sanitize(p.DisplayName)
	case HostnameRandom:
		// Fresh random bytes every call — GE/TiVo-style obfuscation.
		b := make([]byte, 6)
		d.Host.Sched.Rand().Read(b)
		return fmt.Sprintf("dev-%x", b)
	default:
		return sanitize(p.Model)
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '(', r == ')':
			return r
		case r == ' ', r == '\'':
			return '-'
		default:
			return '-'
		}
	}, s)
}

// expand substitutes identifier placeholders in profile string patterns.
func (d *Device) expand(pattern string) string {
	r := strings.NewReplacer(
		"{mac}", d.MAC().String(),
		"{MAC}", d.MAC().Compact(),
		"{tail}", d.MAC().Tail(3),
		"{display}", d.Profile.DisplayName,
		"{serial}", d.Serial,
		"{uuid}", d.UUID,
		"{ip}", d.IP().String(),
		"{model}", d.Profile.Model,
	)
	return r.Replace(pattern)
}

// Start boots the device: DHCP, IPv6 announcement, then every configured
// protocol behaviour on its own timer. All activity runs on the shared
// simulation scheduler.
func (d *Device) Start() {
	if d.Started {
		return
	}
	d.Started = true
	p := d.Profile
	sched := d.Host.Sched

	cl := &dhcp.Client{
		Host:        d.Host,
		Hostname:    d.Hostname(),
		VendorClass: p.DHCPVendorClass,
		Params:      p.DHCPParams,
	}
	d.dhcpClient = cl
	cl.Start(func(ip netip.Addr) {
		// Periodic gateway re-resolution: every device refreshes its ARP
		// entry for the router ahead of cloud keepalives, so ARP activity
		// is near-universal in captures (§4.1: 92%).
		if cl.Router.IsValid() {
			gw := cl.Router
			sched.EveryTagged("device", 30*time.Second, 20*time.Minute, 2*time.Minute, func() {
				d.count("arp", 1)
				d.Host.ARPProbe(gw)
			})
			// Connectivity checks: most devices ping the gateway when their
			// cloud keepalive hiccups — the idle ICMP of §4.1 (78%).
			if p.RespondsToScans || p.IPv6 {
				seq := uint16(0)
				sched.EveryTagged("device", 2*time.Minute, 12*time.Minute, 2*time.Minute, func() {
					seq++
					d.count("icmp", 1)
					d.Host.Ping(gw, uint16(d.MAC()[5]), seq)
				})
			}
		}
		d.onAddressed()
	})

	if p.IPv6 {
		sched.AfterTagged("device", 500*time.Millisecond, d.Host.AnnounceIPv6)
	}
	if p.EAPOL {
		// Periodic EAPOL-Key refresh, hourly like WPA2 group rekeys.
		sched.EveryTagged("device", time.Minute, time.Hour, time.Minute, d.sendEAPOL)
	}
	if p.XID {
		sched.EveryTagged("device", 90*time.Second, 5*time.Minute, 30*time.Second, d.sendXID)
	}
}

// Name returns the profile name (chaos.Churnable).
func (d *Device) Name() string { return d.Profile.Name }

// Crash powers the device off mid-run: its host NIC goes down (losing ARP
// cache and TCP state) and it leaves the switch's station table, so in-flight
// frames addressed to it count as "detached" drops. Timers keep firing but
// every send is suppressed. Reports false (and does nothing) if the device
// never started or is already down.
func (d *Device) Crash() bool {
	if !d.Started || d.crashed {
		return false
	}
	d.crashed = true
	d.Host.SetDown(true)
	d.Host.Net.Detach(d.MAC())
	return true
}

// Retire permanently removes the device from the LAN — the household threw
// it out or it bricked. It detaches through the same path as a crash (so
// in-flight frames addressed to it land in detached-drop accounting), but a
// retired device never restarts. Reports whether the device was up when
// retired.
func (d *Device) Retire() bool {
	if d.Retired {
		return false
	}
	wasUp := d.Crash()
	d.Retired = true
	return wasUp
}

// UpdateFirmware applies a firmware update: the revision counter bumps (the
// SSDP Server banner advertises the new build) and protocol behaviour flags
// flip the way vendor updates really change devices — a plaintext Tuya 3.1
// build moves to the encrypted 3.3 protocol, and an UPnP/1.0 stack rebases
// onto 1.1. Returns the behaviour changes applied, for tracing.
func (d *Device) UpdateFirmware() []string {
	d.FirmwareRev++
	p := d.Profile
	changes := []string{fmt.Sprintf("firmware rev %d", d.FirmwareRev)}
	if p.Tuya != nil && p.Tuya.Plaintext {
		p.Tuya.Plaintext = false
		if d.tuyaDev != nil {
			d.tuyaDev.Plaintext = false
			d.tuyaDev.Beacon.Version = "3.3"
			d.tuyaDev.Beacon.Encrypt = true
		}
		changes = append(changes, "tuya: plaintext 3.1 -> encrypted 3.3")
	}
	if p.SSDP != nil && p.SSDP.UPnPVersion == "1.0" {
		p.SSDP.UPnPVersion = "1.1"
		changes = append(changes, "ssdp: UPnP/1.0 -> UPnP/1.1")
	}
	// Re-render the default Server banners so announcements carry the new
	// UPnP version and firmware build (profile-pinned banners stay).
	if d.ssdpResp != nil && p.SSDP != nil {
		upnp := p.SSDP.UPnPVersion
		if upnp == "" {
			upnp = "1.1"
		}
		for i := range d.ssdpResp.Ads {
			if i < len(p.SSDP.Ads) && p.SSDP.Ads[i].Server == "" {
				d.ssdpResp.Ads[i].Server = fmt.Sprintf("Linux/4.9 UPnP/%s %s/%s",
					upnp, sanitize(p.Vendor), firmwareFor(p, d.FirmwareRev))
			}
		}
	}
	return changes
}

// Restart powers a crashed device back on: it rejoins the switch and re-runs
// its DHCP lease exchange, like a real device rebooting mid-capture. Service
// timers from the original Start are still scheduled, so behaviour resumes
// once the NIC is up; services are not registered twice. Retired devices
// never come back.
func (d *Device) Restart() {
	if !d.crashed || d.Retired {
		return
	}
	d.crashed = false
	d.Host.Net.Attach(d.Host)
	d.Host.SetDown(false)
	if d.dhcpClient != nil {
		d.dhcpClient.Restart()
	}
}

// onAddressed starts the services that need an IP address.
func (d *Device) onAddressed() {
	p := d.Profile
	sched := d.Host.Sched

	if p.MDNS != nil {
		d.startMDNS()
	}
	if p.SSDP != nil {
		d.startSSDP()
	}
	if p.TPLink != nil {
		d.startTPLink()
	}
	if p.Tuya != nil && p.Tuya.Serve {
		d.tuyaDev = &tuya.Device{Host: d.Host, Plaintext: p.Tuya.Plaintext, Beacon: tuya.Beacon{
			GWID:       d.expand("{serial}{tail}"),
			ProductKey: strings.ToLower(d.Serial),
			Version:    map[bool]string{true: "3.1", false: "3.3"}[p.Tuya.Plaintext],
			Active:     2, Encrypt: !p.Tuya.Plaintext,
		}}
		iv := p.Tuya.BroadcastInterval
		if iv == 0 {
			iv = 20 * time.Second
		}
		sched.EveryTagged("device", 2*time.Second, iv, iv/10, func() {
			d.count("tuya", 1)
			d.tuyaDev.Broadcast()
		})
	}
	if p.CoAP {
		d.startCoAP()
	}
	if len(p.NetBIOS) > 0 {
		(&netbios.Responder{Host: d.Host, Names: p.NetBIOS}).Start()
	}
	for _, hs := range p.HTTP {
		d.startHTTP(hs)
	}
	for _, ts := range p.TLS {
		cfg := tlsx.Config{Version: ts.Version, Cert: ts.Cert, RequireClientCert: ts.TwoWay}
		tlsx.NewServer(d.Host, ts.Port, cfg, func(c *tlsx.Conn) {
			c.OnData = func(c *tlsx.Conn, plain []byte) { c.Send([]byte("ack")) }
		})
	}
	if p.DNS != nil {
		d.startDNS()
	}
	if p.TelnetPort != 0 {
		d.startTelnet()
	}
	for _, port := range p.ExtraTCP {
		d.Host.ListenTCP(port, func(c *stack.TCPConn) {})
	}
	for _, port := range p.ExtraUDP {
		d.Host.OpenUDP(port, nil)
	}
	if p.ARP != nil {
		d.startARP()
	}
	if p.LifxQuirk {
		sched.EveryTagged("device", 10*time.Minute, 2*time.Hour, 5*time.Minute, func() {
			d.count("lifx", 1)
			d.Host.SendUDP(56700, netx.Broadcast4, 56700, lifxGetService())
		})
	}
	if p.ICMPv6ProbeCount > 0 && p.IPv6 {
		d.startICMPv6Probes()
	}
}

// lifxGetService builds the LIFX GetService broadcast Echo devices emit.
func lifxGetService() []byte {
	b := make([]byte, 36)
	b[0] = 36 // size
	b[2] = 0x00
	b[3] = 0x34 // protocol 1024, addressable+tagged
	b[32] = 2   // GetService
	return b
}

func (d *Device) sendEAPOL() {
	d.count("eapol", 1)
	d.Host.SendRaw(layers.Serialize(
		&layers.Ethernet{Src: d.MAC(), Dst: netx.MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x03}, EtherType: layers.EtherTypeEAPOL},
		&layers.EAPOL{Version: 2, PacketType: 3, Body: make([]byte, 95)}))
}

func (d *Device) sendXID() {
	d.count("llc-xid", 1)
	d.Host.SendRaw(layers.Serialize(
		&layers.Ethernet{Src: d.MAC(), Dst: netx.Broadcast, EtherType: 3}, // 802.3 length
		&layers.LLC{DSAP: 0, SSAP: 1, Control: 0xaf, Info: []byte{0x81, 1, 0}}))
}

func (d *Device) startMDNS() {
	p := d.Profile
	b := p.MDNS
	var services []mdns.Service
	for _, s := range b.Services {
		svc := mdns.Service{
			Instance: d.expand(s.InstancePattern),
			Type:     s.Type,
			Port:     s.Port,
		}
		for _, txt := range s.TXT {
			svc.TXT = append(svc.TXT, d.expand(txt))
		}
		services = append(services, svc)
		// Advertised service ports are really open (scans must see them);
		// richer servers configured elsewhere override these stubs.
		if svc.Port != 0 && !d.Host.TCPPortOpen(svc.Port) {
			d.Host.ListenTCP(svc.Port, func(*stack.TCPConn) {})
		}
	}
	d.mdnsResp = &mdns.Responder{
		Host:          d.Host,
		Hostname:      d.Hostname() + ".local",
		Services:      services,
		AnswerUnicast: b.AnswerUnicast,
	}
	d.mdnsResp.Start()
	if b.AnnounceInterval > 0 {
		d.Host.Sched.EveryTagged("device", time.Second, b.AnnounceInterval, b.AnnounceInterval/10, func() {
			d.count("mdns", 1)
			d.mdnsResp.Announce()
		})
	}
	if b.QueryInterval > 0 && len(b.QueryTypes) > 0 {
		i := 0
		d.Host.Sched.EveryTagged("device", 3*time.Second, b.QueryInterval, b.QueryInterval/10, func() {
			d.count("mdns", 1)
			mdns.Query(d.Host, b.QueryTypes[i%len(b.QueryTypes)], false)
			i++
		})
	}
}

func (d *Device) startSSDP() {
	p := d.Profile
	b := p.SSDP
	ads := make([]ssdp.Advertisement, len(b.Ads))
	upnp := b.UPnPVersion
	if upnp == "" {
		upnp = "1.1"
	}
	for i, ad := range b.Ads {
		ad.UUID = d.UUID
		if ad.Location == "" && b.DescriptionXML {
			ad.Location = fmt.Sprintf("http://%s:%d/description.xml", d.IP(), d.descPort())
		}
		if ad.Server == "" {
			ad.Server = fmt.Sprintf("Linux/4.9 UPnP/%s %s/%s", upnp, sanitize(p.Vendor), firmwareFor(p, d.FirmwareRev))
		}
		ads[i] = ad
	}
	d.ssdpResp = &ssdp.Responder{Host: d.Host, Ads: ads, Passive: !b.AnswersSearch}
	d.ssdpResp.Start()
	// UPnP stacks listen on a per-device eventing/callback port in the
	// 49xxx range — part of why the lab's scans saw 178 distinct open TCP
	// ports (§4.2).
	eventPort := 49200 + int(md5.Sum([]byte(p.Name))[0])
	if !d.Host.TCPPortOpen(uint16(eventPort)) {
		d.Host.ListenTCP(uint16(eventPort), func(*stack.TCPConn) {})
	}
	if b.NotifyInterval > 0 {
		d.Host.Sched.EveryTagged("device", 2*time.Second, b.NotifyInterval, b.NotifyInterval/10, func() {
			d.count("ssdp", 1)
			d.ssdpResp.NotifyAll()
			if b.AnnounceBadAddress {
				// Fire TV's misconfigured /16 announcement.
				bad := ads[0]
				bad.Location = "http://192.168.0.0:60000/upnp/dev.xml"
				d.Host.SendUDP(ssdp.Port, netx.SSDPGroup, ssdp.Port, bad.Notify())
			}
		})
	}
	if b.SearchInterval > 0 && len(b.SearchTargets) > 0 {
		// First search waits for the rest of the lab to boot; thereafter
		// the profile cadence applies (Google ≈20 s, Echo 2–3 h, §5.1).
		// Control points fetch each responder's description document once —
		// the plaintext HTTP that 17 SSDP-related devices generate (§5.2).
		fetched := map[string]bool{}
		i := 0
		d.Host.Sched.EveryTagged("device", 2*time.Minute, b.SearchInterval, b.SearchInterval/10, func() {
			d.count("ssdp", 1)
			ssdp.Search(d.Host, b.SearchTargets[i%len(b.SearchTargets)], func(m *ssdp.Message, from netip.Addr) {
				loc := m.Location()
				if loc == "" || fetched[loc] {
					return
				}
				fetched[loc] = true
				host, port, path := splitHTTPLocation(loc)
				if host.IsValid() {
					var headers map[string]string
					if ua := userAgentFor(d.Profile); ua != "" {
						headers = map[string]string{"User-Agent": ua}
					}
					httpx.Get(d.Host, host, port, path, headers, nil)
				}
			})
			i++
		})
	}
}

// splitHTTPLocation parses "http://ip:port/path".
func splitHTTPLocation(loc string) (netip.Addr, uint16, string) {
	loc = strings.TrimPrefix(loc, "http://")
	hostport, path, _ := strings.Cut(loc, "/")
	ap, err := netip.ParseAddrPort(hostport)
	if err != nil {
		return netip.Addr{}, 0, ""
	}
	return ap.Addr(), ap.Port(), "/" + path
}

// userAgentFor picks the HTTP client identity; only Google products and the
// LG TV send one (§5.2).
func userAgentFor(p *Profile) string {
	for _, h := range p.HTTP {
		if h.UserAgent != "" {
			return h.UserAgent
		}
	}
	return ""
}

// descPort is where the UPnP description XML is served.
func (d *Device) descPort() uint16 {
	for _, hs := range d.Profile.HTTP {
		return hs.Port
	}
	return 49152
}

// firmwareFor derives the advertised firmware build from the model, with
// rev bumping the patch component per applied update.
func firmwareFor(p *Profile, rev int) string {
	sum := md5.Sum([]byte(p.Model))
	return fmt.Sprintf("%d.%d.%d", sum[0]%9+1, sum[1]%20, int(sum[2]%100)+rev)
}

func (d *Device) startTPLink() {
	spec := d.Profile.TPLink
	if spec.Serve {
		dev := &tplink.Device{Host: d.Host, Info: tplink.SysInfo{
			DeviceID: strings.ToUpper(fmt.Sprintf("%x", sha1.Sum([]byte("tplink:"+d.Profile.Name)))),
			HWID:     strings.ToUpper(fmt.Sprintf("%x", md5.Sum([]byte("hw:"+d.Profile.Model)))),
			OEMID:    strings.ToUpper(fmt.Sprintf("%x", md5.Sum([]byte("oem:TP-Link")))),
			Alias:    d.Profile.DisplayName,
			DevName:  d.Profile.Model,
			Model:    d.Profile.Model,
			MAC:      d.MAC().String(),
			Latitude: spec.Latitude, Longitude: spec.Longitude,
		}}
		dev.Start()
	}
	if spec.Discover {
		iv := spec.DiscoverInterval
		if iv == 0 {
			iv = time.Hour
		}
		d.Host.Sched.EveryTagged("device", 30*time.Second, iv, iv/10, func() {
			d.count("tplink", 1)
			tplink.Discover(d.Host, nil)
		})
	}
}

func (d *Device) startCoAP() {
	// Serve /oic/res and periodically request it from the multicast group
	// (the Samsung fridge's IoTivity behaviour).
	d.Host.JoinGroup(netx.CoAPGroup)
	d.Host.OpenUDP(coap.Port, func(dg stack.Datagram) {
		m, err := coap.Unmarshal(dg.Payload)
		if err != nil || m.Code != coap.CodeGET || m.Path() != "/oic/res" {
			return
		}
		body := fmt.Sprintf(`[{"href":"/oic/d","rt":"oic.wk.d","n":"%s"}]`, d.Profile.Model)
		d.Host.SendUDP(coap.Port, dg.Src, dg.SrcPort, coap.NewContent(m, []byte(body)).Marshal())
	})
	id := uint16(1)
	d.Host.Sched.EveryTagged("device", time.Minute, 10*time.Minute, time.Minute, func() {
		d.count("coap", 1)
		d.Host.SendUDP(coap.Port, netx.CoAPGroup, coap.Port, coap.NewGET(id, "/oic/res").Marshal())
		id++
	})
}

func (d *Device) startHTTP(hs HTTPSpec) {
	srv := httpx.NewServer(d.Host, hs.Port, hs.Banner)
	for path, body := range hs.Paths {
		b := d.expand(body)
		srv.Handle(path, func(*httpx.Request) *httpx.Response {
			return &httpx.Response{Status: 200, Body: []byte(b)}
		})
	}
	if d.Profile.SSDP != nil && d.Profile.SSDP.DescriptionXML {
		doc, err := d.DescriptionDocument()
		if err == nil {
			srv.Handle("/description.xml", func(*httpx.Request) *httpx.Response {
				return &httpx.Response{Status: 200,
					Headers: map[string]string{"Content-Type": "text/xml"}, Body: doc}
			})
		}
	}
}

// DescriptionDocument renders the UPnP device description (Table 5).
func (d *Device) DescriptionDocument() ([]byte, error) {
	p := d.Profile
	dev := &ssdp.Device{
		FriendlyName: p.DisplayName,
		Manufacturer: p.Vendor,
		ModelName:    p.Model,
		SerialNumber: d.Serial,
		UDN:          "uuid:" + d.UUID,
		DeviceType:   ssdp.TargetBasic,
	}
	if dev.FriendlyName == "" {
		dev.FriendlyName = p.Model
	}
	if p.SSDP != nil && len(p.SSDP.Ads) > 0 {
		dev.DeviceType = p.SSDP.Ads[0].Target
		for _, ad := range p.SSDP.Ads {
			dev.Services = append(dev.Services, ssdp.DeviceService{
				ServiceType: ad.Target, ControlURL: "/upnp/control",
			})
		}
	}
	return dev.Document()
}

func (d *Device) startDNS() {
	// A tiny DNS server that resolves its own hostname and — vulnerably —
	// answers cache-snooping probes for recently resolved names (§5.2).
	recent := []string{"time.apple.com", "gateway.icloud.com"}
	d.Host.OpenUDP(53, func(dg stack.Datagram) {
		m, err := parseDNSQuery(dg.Payload)
		if err != nil {
			return
		}
		d.Host.SendUDP(53, dg.Src, dg.SrcPort, m.respond(d.Host.IPv4(), d.Hostname(), recent))
	})
}

func (d *Device) startTelnet() {
	d.Host.ListenTCP(d.Profile.TelnetPort, func(c *stack.TCPConn) {
		sess := &telnetx.Session{Banner: "BusyBox v1.12.1 (2018-04-21) built-in shell"}
		c.Send(sess.Greeting())
		c.OnData = func(c *stack.TCPConn, data []byte) {
			c.Send(sess.Feed(data))
		}
	})
}

func (d *Device) startARP() {
	b := d.Profile.ARP
	if b.SweepInterval > 0 {
		d.Host.Sched.EveryTagged("device", time.Minute, b.SweepInterval, b.SweepInterval/10, func() {
			base := d.IP().As4()
			probes := uint64(0)
			for host := byte(1); host < 255; host++ {
				base[3] = host
				target := netip.AddrFrom4(base)
				if target != d.IP() {
					d.Host.ARPProbe(target)
					probes++
				}
			}
			if b.RequestsPublicIPs {
				d.Host.ARPProbe(netip.AddrFrom4([4]byte{8, 8, 8, 8}))
				probes++
			}
			d.count("arp", probes)
		})
	}
	if b.UnicastProbes {
		d.Host.Sched.EveryTagged("device", 5*time.Minute, time.Hour, 5*time.Minute, func() {
			for _, peer := range d.Peers {
				if peer.IP().IsValid() {
					d.count("arp", 1)
					d.Host.ARPProbeUnicast(peer.MAC(), peer.IP())
				}
			}
		})
	}
}

func (d *Device) startICMPv6Probes() {
	count := d.Profile.ICMPv6ProbeCount
	sent := 0
	d.Host.Sched.EveryTagged("device", time.Minute, 30*time.Second, 5*time.Second, func() {
		if sent >= count {
			return
		}
		for i := 0; i < 8 && sent < count; i++ {
			var a [16]byte
			a[0], a[1] = 0xfe, 0x80
			d.Host.Sched.Rand().Read(a[8:])
			d.count("icmpv6-probe", 1)
			d.Host.SendUDP(5353, netip.AddrFrom16(a), 5353, nil)
			sent++
		}
	})
}

// RTPSync streams a burst of RTP packets to a peer (multi-room audio).
func (d *Device) RTPSync(peer *Device, packets int) {
	if d.Profile.RTPPort == 0 || !peer.IP().IsValid() {
		return
	}
	d.count("rtp", uint64(packets))
	if d.Host.Sched.Tracing() {
		d.Host.Sched.TraceEvent("proto", "rtp-sync",
			"from", d.Profile.Name, "to", peer.Profile.Name)
	}
	ssrc := uint32(md5.Sum([]byte(d.Profile.Name))[0])<<8 | 0x42
	for i := 0; i < packets; i++ {
		h := &rtp.Header{PayloadType: 10, Seq: uint16(i), Timestamp: uint32(i) * 160, SSRC: ssrc}
		payload := make([]byte, 160)
		d.Host.Sched.Rand().Read(payload)
		d.Host.SendUDP(d.Profile.RTPPort, peer.IP(), d.Profile.RTPPort, h.Marshal(payload))
	}
}

// DialPeerTLS opens a platform-internal TLS connection to a peer, sends one
// control message and closes — the Figure 4 cluster traffic.
func (d *Device) DialPeerTLS(peer *Device) {
	var spec *TLSSpec
	for i := range peer.Profile.TLS {
		spec = &peer.Profile.TLS[i]
		break
	}
	if spec == nil || !peer.IP().IsValid() {
		return
	}
	d.count("tls", 1)
	if d.Host.Sched.Tracing() {
		d.Host.Sched.TraceEvent("proto", "tls-dial",
			"from", d.Profile.Name, "to", peer.Profile.Name)
	}
	cfg := tlsx.Config{Version: spec.Version}
	if spec.TwoWay {
		cfg.Cert = clientCertFor(d)
	}
	conn := tlsx.Dial(d.Host, peer.IP(), spec.Port, cfg, "")
	conn.OnEstablished = func(c *tlsx.Conn) { c.Send([]byte(`{"type":"keepalive"}`)) }
	conn.OnData = func(c *tlsx.Conn, _ []byte) { c.Close() }
}

func clientCertFor(d *Device) tlsx.CertMeta {
	return tlsx.CertMeta{
		IssuerCN: d.IP().String(), SubjectCN: d.IP().String(),
		SelfSigned: true, KeyBits: 128,
		NotBefore: d.Host.Sched.Now().Add(-24 * time.Hour),
		NotAfter:  d.Host.Sched.Now().Add(90 * 24 * time.Hour),
	}
}
