package inspector

import (
	"strconv"
	"unicode/utf8"

	"iotlan/internal/netx"
)

// The one-pass codec for canonical wire records.
//
// A canonical record is exactly the bytes WireRecord emits: the keys in
// declaration order with no whitespace, each omitempty field present if and
// only if it is non-zero, integers with no leading zero and no "-0", a
// lowercase hh:hh:hh OUI, and strings holding only the escapes
// encoding/json's HTML-safe encoder writes. appendWireRecord produces that
// form straight from a Household, byte-identical to json.Marshal of its
// Wire form. decodeCanonical accepts a record only when its bytes are that
// form, so re-encoding what it decodes reproduces them; everything else
// (whitespace, reordered or differently cased keys, zero-valued omitempty
// fields, \/ or \ufffd escapes, an upper-case OUI) is left to the
// encoding/json path in wire.go, which remains the oracle for what the
// upload format accepts.

// wireRaw marks the ASCII bytes encoding/json writes unescaped inside a
// string when it escapes HTML: printable ASCII and DEL, minus '"', '\\',
// '<', '>' and '&'.
var wireRaw = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// wireShortEscape maps the bytes encoding/json escapes with a backslash and
// one letter to that letter. Every other escaped ASCII byte is \u00XX.
var wireShortEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

const lowerHex = "0123456789abcdef"

// appendWireRecord appends h's canonical wire record to b.
func appendWireRecord(b []byte, h *Household) []byte {
	b = append(b, `{"id":`...)
	b = appendWireString(b, h.ID)
	b = append(b, `,"devices":[`...)
	for i, d := range h.Devices {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendWireDevice(b, d)
	}
	return append(b, "]}"...)
}

func appendWireDevice(b []byte, d *Device) []byte {
	b = append(b, `{"id":`...)
	b = appendWireString(b, d.ID)
	b = append(b, `,"oui":"`...)
	for i, o := range d.OUI {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, lowerHex[o>>4], lowerHex[o&0xf])
	}
	b = append(b, '"')
	if d.DHCPHostname != "" {
		b = append(b, `,"dhcp_hostname":`...)
		b = appendWireString(b, d.DHCPHostname)
	}
	if d.UserLabel != "" {
		b = append(b, `,"user_label":`...)
		b = appendWireString(b, d.UserLabel)
	}
	if len(d.MDNS) > 0 {
		b = appendWireStrings(append(b, `,"mdns":`...), d.MDNS)
	}
	if len(d.SSDP) > 0 {
		b = appendWireStrings(append(b, `,"ssdp":`...), d.SSDP)
	}
	if len(d.Windows.b) > 0 {
		// Straight from the packed integers to digits (see Windows).
		b = append(b, `,"windows":[`...)
		var w WireWindow
		for i := 0; i < len(d.Windows.b); {
			w, i = unpack(d.Windows.b, i, w.StartMicros)
			b = append(b, `{"start_us":`...)
			b = strconv.AppendInt(b, w.StartMicros, 10)
			b = append(b, `,"in":`...)
			b = appendCount(b, w.BytesIn)
			b = append(b, `,"out":`...)
			b = appendCount(b, w.BytesOut)
			if w.PeerLocal {
				b = append(b, `,"local":true`...)
			}
			b = append(b, '}', ',')
		}
		b[len(b)-1] = ']'
	}
	p := d.Product
	b = append(b, `,"product":{"vendor":`...)
	b = appendWireString(b, p.Vendor)
	b = append(b, `,"category":`...)
	b = appendWireString(b, p.Category)
	if p.ExposesName {
		b = append(b, `,"exposes_name":true`...)
	}
	if p.ExposesUUID {
		b = append(b, `,"exposes_uuid":true`...)
	}
	if p.ExposesMAC {
		b = append(b, `,"exposes_mac":true`...)
	}
	if p.Popularity != 0 {
		b = append(b, `,"popularity":`...)
		b = strconv.AppendInt(b, int64(p.Popularity), 10)
	}
	return append(b, "}}"...)
}

// digitPairs holds the two decimal digits of each number below 100.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendCount appends v in decimal, as strconv.AppendInt(b, v, 10) does,
// with at most two digit-pair lookups for a value below 10,000 instead of
// strconv's call and scratch buffer. That pays for the three varints
// appendWireDevice decodes per window: with strconv for the counts,
// BenchmarkWireRecord runs about 17% slower (DESIGN.md, "Packed traffic
// windows", has the A/B). The generator draws every count below 4,000, so
// each benchmarked window takes the table path; nothing in this repository
// measures the counts of real windows.
func appendCount(b []byte, v int) []byte {
	if uint(v) >= 10000 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	if v >= 100 {
		hi := v / 100
		if hi >= 10 {
			b = append(b, digitPairs[2*hi])
		}
		b = append(b, digitPairs[2*hi+1])
		v -= 100 * hi
		return append(b, digitPairs[2*v], digitPairs[2*v+1])
	}
	if v >= 10 {
		b = append(b, digitPairs[2*v])
	}
	return append(b, digitPairs[2*v+1])
}

func appendWireStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendWireString(b, s)
	}
	return append(b, ']')
}

// appendWireString appends s as encoding/json quotes it with HTML escaping
// on: short escapes where JSON has them, \u00XX for the other control bytes
// and for '<', '>' and '&', \ufffd for each byte of invalid UTF-8, and
// \u2028 and \u2029 escaped. Everything else, DEL included, is copied raw.
func appendWireString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if wireRaw[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			if e := wireShortEscape[c]; e != 0 {
				b = append(b, '\\', e)
			} else {
				b = append(b, '\\', 'u', '0', '0', lowerHex[c>>4], lowerHex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', lowerHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// wireParser decodes canonical wire records. Its scratch buffers are reused
// from record to record; every string it returns is a copy, so nothing it
// decodes aliases the bytes it was given.
type wireParser struct {
	b   []byte
	i   int
	esc []byte       // unescaped bytes of the current string
	win windowPacker // the current device's windows
}

// decodeCanonical decodes rec if it is a canonical wire record of a valid
// household, and reports false otherwise — the caller then falls back to
// encoding/json, which accepts or rejects it as before.
func (p *wireParser) decodeCanonical(rec []byte) (*Household, bool) {
	p.b, p.i = rec, 0
	h, ok := p.household()
	p.b = nil
	return h, ok
}

func (p *wireParser) household() (*Household, bool) {
	if !p.lit(`{"id":`) {
		return nil, false
	}
	id, ok := p.str()
	if !ok || id == "" || !p.lit(`,"devices":[`) {
		return nil, false
	}
	h := &Household{ID: id, Devices: []*Device{}}
	if !p.lit("]") {
		for {
			d, ok := p.device()
			if !ok {
				return nil, false
			}
			h.Devices = append(h.Devices, d)
			if !p.lit(",") {
				break
			}
		}
		if !p.lit("]") {
			return nil, false
		}
	}
	if !p.lit("}") || p.i != len(p.b) {
		return nil, false
	}
	return h, true
}

func (p *wireParser) device() (*Device, bool) {
	d := &Device{}
	var ok bool
	if !p.lit(`{"id":`) {
		return nil, false
	}
	if d.ID, ok = p.str(); !ok || !p.lit(`,"oui":"`) || len(p.b)-p.i < 9 {
		return nil, false
	}
	if d.OUI, ok = parseOUI(p.b[p.i:p.i+8], false); !ok || p.b[p.i+8] != '"' {
		return nil, false
	}
	p.i += 9
	if p.lit(`,"dhcp_hostname":`) {
		if d.DHCPHostname, ok = p.str(); !ok || d.DHCPHostname == "" {
			return nil, false
		}
	}
	if p.lit(`,"user_label":`) {
		if d.UserLabel, ok = p.str(); !ok || d.UserLabel == "" {
			return nil, false
		}
	}
	if p.lit(`,"mdns":[`) {
		if d.MDNS, ok = p.strs(); !ok {
			return nil, false
		}
	}
	if p.lit(`,"ssdp":[`) {
		if d.SSDP, ok = p.strs(); !ok {
			return nil, false
		}
	}
	if p.lit(`,"windows":[`) {
		if d.Windows, ok = p.windows(); !ok {
			return nil, false
		}
	}
	if !p.lit(`,"product":{"vendor":`) {
		return nil, false
	}
	pr := &d.Product
	if pr.Vendor, ok = p.str(); !ok || !p.lit(`,"category":`) {
		return nil, false
	}
	if pr.Category, ok = p.str(); !ok {
		return nil, false
	}
	pr.ExposesName = p.lit(`,"exposes_name":true`)
	pr.ExposesUUID = p.lit(`,"exposes_uuid":true`)
	pr.ExposesMAC = p.lit(`,"exposes_mac":true`)
	if p.lit(`,"popularity":`) {
		if pr.Popularity, ok = p.int(); !ok || pr.Popularity == 0 {
			return nil, false
		}
	}
	return d, p.lit("}}")
}

// strs parses the elements and closing bracket of a non-empty string array.
func (p *wireParser) strs() ([]string, bool) {
	var ss []string
	for {
		s, ok := p.str()
		if !ok {
			return nil, false
		}
		ss = append(ss, s)
		if !p.lit(",") {
			return ss, p.lit("]")
		}
	}
}

// windows parses the elements and closing bracket of a non-empty window
// array, packing each window's integers as it reads them.
func (p *wireParser) windows() (Windows, bool) {
	p.win = windowPacker{buf: p.win.buf[:0]} // drop what a failed parse left
	for {
		if !p.lit(`{"start_us":`) {
			return Windows{}, false
		}
		us, ok := p.int64()
		if !ok || !p.lit(`,"in":`) {
			return Windows{}, false
		}
		in, ok := p.int()
		if !ok || !p.lit(`,"out":`) {
			return Windows{}, false
		}
		out, ok := p.int()
		if !ok {
			return Windows{}, false
		}
		local := p.lit(`,"local":true`)
		if !p.lit("}") {
			return Windows{}, false
		}
		p.win.add(us, in, out, local)
		if !p.lit(",") {
			break
		}
	}
	if !p.lit("]") {
		return Windows{}, false
	}
	return p.win.windows(), true
}

// lit consumes s if the input continues with it.
func (p *wireParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// int64 parses a canonical integer: "0", or an optional '-' and digits
// without a leading zero, within int64's range.
func (p *wireParser) int64() (int64, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i < len(b) && b[i] == '0' && !neg {
		p.i = i + 1
		return 0, true
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i-start == 19 { // 20 digits exceed int64 either way
			return 0, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	if i == start || b[start] == '0' {
		return 0, false
	}
	p.i = i
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return int64(-u), true // -u wraps to the two's complement of u; 1<<63 maps to MinInt64
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// int is int64 for an int field, rejecting values outside int's range.
func (p *wireParser) int() (int, bool) {
	v, ok := p.int64()
	return int(v), ok && int64(int(v)) == v
}

// str parses a canonical JSON string and returns a copy of its value.
func (p *wireParser) str() (string, bool) {
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '"' {
		return "", false
	}
	i++
	start := i
	for i < len(b) && wireRaw[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		p.i = i + 1
		return string(b[start:i]), true
	}
	out := append(p.esc[:0], b[start:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case wireRaw[c]:
			out = append(out, c)
			i++
		case c == '"':
			p.i, p.esc = i+1, out
			return string(out), true
		case c == '\\':
			r, n, ok := wireUnescape(b[i:])
			if !ok {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			i += n
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if (r == utf8.RuneError && n == 1) || r == '\u2028' || r == '\u2029' {
				return "", false // the encoder writes these escaped
			}
			out = append(out, b[i:i+n]...)
			i += n
		default: // a control byte, '<', '>' or '&': the encoder escapes them
			return "", false
		}
	}
	return "", false
}

// wireUnescape decodes the escape sequence at the start of b, if it is one
// appendWireString writes, returning the rune and the sequence's length.
func wireUnescape(b []byte) (rune, int, bool) {
	if len(b) < 2 {
		return 0, 0, false
	}
	switch b[1] {
	case '"', '\\':
		return rune(b[1]), 2, true
	case 'b':
		return '\b', 2, true
	case 'f':
		return '\f', 2, true
	case 'n':
		return '\n', 2, true
	case 'r':
		return '\r', 2, true
	case 't':
		return '\t', 2, true
	case 'u':
		if len(b) < 6 {
			return 0, 0, false
		}
	default:
		return 0, 0, false
	}
	switch u := string(b[2:6]); {
	case u == "2028":
		return '\u2028', 6, true
	case u == "2029":
		return '\u2029', 6, true
	case u[:2] == "00":
		hi, lo := unhex(u[2], false), unhex(u[3], false)
		c := hi<<4 | lo
		if hi > 0xf || lo > 0xf || c >= utf8.RuneSelf || wireRaw[c] || wireShortEscape[c] != 0 {
			return 0, 0, false
		}
		return rune(c), 6, true
	}
	return 0, 0, false
}

// unhex returns the value of hex digit c, or 0xff if c is not one; upper
// admits A–F as well as a–f.
func unhex(c byte, upper bool) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case upper && 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xff
}

// parseOUI parses exactly "hh:hh:hh"; upper admits upper-case hex digits.
func parseOUI[T string | []byte](s T, upper bool) (netx.OUI, bool) {
	var o netx.OUI
	if len(s) != 8 || s[2] != ':' || s[5] != ':' {
		return o, false
	}
	for i := range o {
		hi, lo := unhex(s[3*i], upper), unhex(s[3*i+1], upper)
		if hi > 0xf || lo > 0xf {
			return netx.OUI{}, false
		}
		o[i] = hi<<4 | lo
	}
	return o, true
}
