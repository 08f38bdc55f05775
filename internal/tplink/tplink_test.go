package tplink

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

func TestObfuscateRoundTrip(t *testing.T) {
	f := func(plain []byte) bool {
		return bytes.Equal(Deobfuscate(Obfuscate(plain)), plain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObfuscateKnownVector(t *testing.T) {
	// The classic softScheck vector: "{" ^ 171 = 0xd0.
	got := Obfuscate([]byte("{"))
	if got[0] != 0xd0 {
		t.Fatalf("first byte %#x, want 0xd0", got[0])
	}
}

func TestFrameTCPRoundTrip(t *testing.T) {
	body := []byte(QuerySysinfo)
	framed := FrameTCP(body)
	got, err := UnframeTCP(framed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("unframed %q", got)
	}
	if _, err := UnframeTCP(framed[:3]); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, err := UnframeTCP([]byte{0, 0, 0, 200, 1, 2}); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestParseSysinfoResponse(t *testing.T) {
	raw := []byte(`{"system":{"get_sysinfo":{"deviceId":"8006E8E9017F556D283C850B4E29BC1F185334E5","hwId":"60FF6B258734EA6880E186F8C96DDC61","oemId":"FFF22CFF774A0B89F7624BFC6F50D5DE","alias":"TP-Link Plug","dev_name":"Wi-Fi Smart Plug With Energy Monitoring","latitude":42.337681,"longitude":-71.087036}}}`)
	info, err := ParseSysinfoResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.DeviceID != "8006E8E9017F556D283C850B4E29BC1F185334E5" {
		t.Fatalf("deviceId %q", info.DeviceID)
	}
	if info.Latitude != 42.337681 || info.Longitude != -71.087036 {
		t.Fatalf("geolocation lost: %v %v", info.Latitude, info.Longitude)
	}
	if _, err := ParseSysinfoResponse([]byte(`{"system":{}}`)); err == nil {
		t.Fatal("empty system accepted")
	}
}

type env struct {
	sched *sim.Scheduler
	net   *lan.Network
}

func newEnv() *env {
	s := sim.NewScheduler(1)
	return &env{sched: s, net: lan.New(s)}
}

func (e *env) host(last byte) *stack.Host {
	h := stack.NewHost(e.net, netx.MAC{0x50, 0xc7, 0xbf, 0, 0, last}, stack.DefaultPolicy)
	h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
	return h
}

func plugInfo() SysInfo {
	return SysInfo{
		DeviceID: "8006E8E9017F556D283C850B4E29BC1F185334E5",
		HWID:     "60FF6B258734EA6880E186F8C96DDC61",
		OEMID:    "FFF22CFF774A0B89F7624BFC6F50D5DE",
		Alias:    "TP-Link Plug",
		Model:    "HS110(US)",
		Latitude: 42.337681, Longitude: -71.087036,
	}
}

func TestBroadcastDiscovery(t *testing.T) {
	e := newEnv()
	plug := &Device{Host: e.host(40), Info: plugInfo()}
	plug.Start()

	echo := e.host(50)
	var found []*SysInfo
	Discover(echo, func(info *SysInfo, from netip.Addr) { found = append(found, info) })
	e.sched.RunFor(time.Second)

	if len(found) != 1 {
		t.Fatalf("discovered %d devices", len(found))
	}
	if found[0].Latitude != 42.337681 {
		t.Fatal("geolocation not exposed via discovery")
	}
	if found[0].OEMID != plugInfo().OEMID {
		t.Fatalf("oemId %q", found[0].OEMID)
	}
}

func TestUnauthenticatedControl(t *testing.T) {
	e := newEnv()
	plug := &Device{Host: e.host(40), Info: plugInfo()}
	if plug.Info.RelayState != 0 {
		t.Fatalf("plug starts with relay state %d, want 0", plug.Info.RelayState)
	}
	plug.Start()

	attacker := e.host(66)
	var ok *bool
	Control(attacker, netip.MustParseAddr("192.168.10.40"), true, func(b bool) { ok = &b })
	e.sched.RunFor(time.Second)

	if plug.Info.RelayState != 1 {
		t.Fatalf("relay not switched by unauthenticated attacker: relay state %d", plug.Info.RelayState)
	}
	if ok == nil || !*ok {
		t.Fatal("control ack not received")
	}
}

func TestDeviceIgnoresGarbage(t *testing.T) {
	e := newEnv()
	plug := &Device{Host: e.host(40), Info: plugInfo()}
	plug.Start()
	attacker := e.host(66)
	n := 0
	sock := attacker.OpenUDPEphemeral(func(stack.Datagram) { n++ })
	sock.SendTo(netip.MustParseAddr("192.168.10.40"), Port, []byte("not tplink"))
	e.sched.RunFor(time.Second)
	if n != 0 {
		t.Fatalf("device answered garbage %d times", n)
	}
}
