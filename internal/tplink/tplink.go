// Package tplink implements the TP-Link Smart Home Protocol (TPLINK-SHP):
// the XOR-autokey "encryption", the JSON command set, UDP 9999 broadcast
// discovery and TCP 9999 control. The protocol answers get_sysinfo with the
// device's geolocation, deviceId, hwId and oemId in the clear, and accepts
// control commands without authentication (§5.1) — the study's starkest
// exposure case.
package tplink

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"time"

	"iotlan/internal/netx"
	"iotlan/internal/stack"
)

// Port is the TPLINK-SHP UDP/TCP port.
const Port = 9999

// initialKey is the protocol's fixed autokey seed (171).
const initialKey = 171

// Obfuscate applies the XOR-autokey cipher used on UDP datagrams.
func Obfuscate(plain []byte) []byte {
	out := make([]byte, len(plain))
	key := byte(initialKey)
	for i, b := range plain {
		out[i] = b ^ key
		key = out[i]
	}
	return out
}

// Deobfuscate reverses Obfuscate.
func Deobfuscate(cipher []byte) []byte {
	out := make([]byte, len(cipher))
	key := byte(initialKey)
	for i, b := range cipher {
		out[i] = b ^ key
		key = b
	}
	return out
}

// FrameTCP prepends the 4-byte big-endian length used on TCP connections.
func FrameTCP(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// UnframeTCP strips the TCP length prefix.
func UnframeTCP(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("tplink: short TCP frame")
	}
	n := binary.BigEndian.Uint32(data[0:4])
	if int(n) > len(data)-4 {
		return nil, fmt.Errorf("tplink: truncated TCP frame (%d > %d)", n, len(data)-4)
	}
	return data[4 : 4+n], nil
}

// SysInfo is the get_sysinfo response body, reproducing Table 5's fields.
type SysInfo struct {
	DeviceID   string  `json:"deviceId"`
	HWID       string  `json:"hwId"`
	OEMID      string  `json:"oemId"`
	Alias      string  `json:"alias"`
	DevName    string  `json:"dev_name"`
	Model      string  `json:"model"`
	SWVersion  string  `json:"sw_ver"`
	MAC        string  `json:"mac"`
	RelayState int     `json:"relay_state"`
	Latitude   float64 `json:"latitude"`
	Longitude  float64 `json:"longitude"`
}

type sysinfoEnvelope struct {
	System struct {
		GetSysinfo *SysInfo `json:"get_sysinfo"`
	} `json:"system"`
}

type relayEnvelope struct {
	System struct {
		SetRelayState *struct {
			State int `json:"state"`
		} `json:"set_relay_state"`
	} `json:"system"`
}

// QuerySysinfo is the canonical discovery probe body.
const QuerySysinfo = `{"system":{"get_sysinfo":{}}}`

// NewSetRelayState builds an unauthenticated on/off control command.
func NewSetRelayState(on bool) []byte {
	state := 0
	if on {
		state = 1
	}
	return []byte(fmt.Sprintf(`{"system":{"set_relay_state":{"state":%d}}}`, state))
}

// ParseSysinfoResponse extracts SysInfo from a plaintext response body.
func ParseSysinfoResponse(plain []byte) (*SysInfo, error) {
	var env sysinfoEnvelope
	if err := json.Unmarshal(plain, &env); err != nil {
		return nil, fmt.Errorf("tplink: bad sysinfo JSON: %w", err)
	}
	if env.System.GetSysinfo == nil {
		return nil, fmt.Errorf("tplink: no get_sysinfo in response")
	}
	return env.System.GetSysinfo, nil
}

// Device serves TPLINK-SHP for a simulated plug or bulb: UDP discovery
// responses and unauthenticated TCP control.
type Device struct {
	Host *stack.Host
	// Info is what discovery reports; control commands set its
	// RelayState.
	Info SysInfo
}

// Start opens UDP and TCP port 9999.
func (d *Device) Start() {
	d.Host.OpenUDP(Port, d.onDatagram)
	d.Host.ListenTCP(Port, d.onAccept)
}

func (d *Device) sysinfoResponse() []byte {
	var env sysinfoEnvelope
	info := d.Info
	env.System.GetSysinfo = &info
	out, _ := json.Marshal(env)
	return out
}

func (d *Device) onDatagram(dg stack.Datagram) {
	plain := Deobfuscate(dg.Payload)
	if string(plain) != QuerySysinfo {
		return
	}
	// Discovery responses go back unicast, still "encrypted".
	d.Host.SendUDP(Port, dg.Src, dg.SrcPort, Obfuscate(d.sysinfoResponse()))
}

func (d *Device) onAccept(c *stack.TCPConn) {
	c.OnData = func(c *stack.TCPConn, data []byte) {
		body, err := UnframeTCP(data)
		if err != nil {
			return
		}
		plain := Deobfuscate(body)
		if string(plain) == QuerySysinfo {
			c.Send(FrameTCP(Obfuscate(d.sysinfoResponse())))
			return
		}
		var relay relayEnvelope
		if json.Unmarshal(plain, &relay) == nil && relay.System.SetRelayState != nil {
			d.Info.RelayState = relay.System.SetRelayState.State
			c.Send(FrameTCP(Obfuscate([]byte(`{"system":{"set_relay_state":{"err_code":0}}}`))))
		}
	}
}

// Discover broadcasts the sysinfo query and delivers parsed responses —
// what Alexa, Google Home and companion apps do (§5.1). The socket
// auto-closes after the response window so hourly discoverers don't leak
// ports over multi-day runs.
func Discover(h *stack.Host, fn func(info *SysInfo, from netip.Addr)) {
	sock := h.OpenUDPEphemeral(func(dg stack.Datagram) {
		info, err := ParseSysinfoResponse(Deobfuscate(dg.Payload))
		if err != nil {
			return
		}
		if fn != nil {
			fn(info, dg.Src)
		}
	})
	sock.SendTo(netx.Broadcast4, Port, Obfuscate([]byte(QuerySysinfo)))
	h.Sched.After(10*time.Second, sock.Close)
}

// Control dials the device and issues an unauthenticated relay command, the
// §5.1 "local attacker controls TP-Link devices" finding.
func Control(h *stack.Host, dst netip.Addr, on bool, done func(ok bool)) {
	conn := h.DialTCP(dst, Port)
	conn.OnConnect = func(c *stack.TCPConn) {
		c.Send(FrameTCP(Obfuscate(NewSetRelayState(on))))
	}
	conn.OnData = func(c *stack.TCPConn, data []byte) {
		if done != nil {
			done(true)
		}
		c.Close()
	}
	conn.OnRefused = func(*stack.TCPConn) {
		if done != nil {
			done(false)
		}
	}
}
