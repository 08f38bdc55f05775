package inspector

import (
	"encoding/binary"
	"encoding/json"
	"time"
)

// Windows holds one device's traffic windows, packed into a byte slice of
// exactly their encoded length. No analysis reads a window: they only
// cross the wire and the export. So each is kept as the integers the wire
// carries, about 9 bytes where a TrafficWindow takes 48. Per window the
// encoding is three zigzag varints, then a PeerLocal byte (0 or 1):
//
//   - the start's Unix-microsecond difference from the previous window's
//     start (the first window's from 0);
//   - BytesIn;
//   - BytesOut.
//
// The differences wrap, so every int64 start the wire accepts round-trips.
// The zero value holds no windows. The wire codec moves integers between
// JSON digits and this form directly; TrafficWindow is the form All and
// MarshalJSON hand out.
type Windows struct{ b []byte }

// Len returns the number of windows. A varint has exactly one byte below
// 0x80, its last, and the PeerLocal byte is 0 or 1, so each window holds
// exactly four bytes below 0x80.
func (w Windows) Len() int {
	n := 0
	for _, c := range w.b {
		if c < 0x80 {
			n++
		}
	}
	return n / 4
}

// All returns the windows unpacked, or nil if there are none.
func (w Windows) All() []TrafficWindow {
	ws := w.wire()
	if ws == nil {
		return nil
	}
	out := make([]TrafficWindow, len(ws))
	for i, win := range ws {
		out[i] = TrafficWindow{
			Start:     time.UnixMicro(win.StartMicros).UTC(),
			BytesIn:   win.BytesIn,
			BytesOut:  win.BytesOut,
			PeerLocal: win.PeerLocal,
		}
	}
	return out
}

// wire returns the windows as the integers the wire carries, or nil if
// there are none.
func (w Windows) wire() []WireWindow {
	if len(w.b) == 0 {
		return nil
	}
	out := make([]WireWindow, 0, w.Len())
	var win WireWindow
	for i := 0; i < len(w.b); {
		win, i = unpack(w.b, i, win.StartMicros)
		out = append(out, win)
	}
	return out
}

// MarshalJSON writes the windows exactly as encoding/json writes the
// []TrafficWindow All returns: null when there are none. A dataset
// marshalled by reflection, as Study.Export writes inspector.json, keeps
// its bytes; without this method each device's windows would read {}.
func (w Windows) MarshalJSON() ([]byte, error) {
	return json.Marshal(w.All())
}

// windowPacker packs windows into a scratch buffer, from which windows
// copies them out at exact length. The zero value is ready to use.
type windowPacker struct {
	buf  []byte
	prev int64 // the last window's start
}

// add appends one window. start is in Unix microseconds.
func (p *windowPacker) add(start int64, in, out int, local bool) {
	p.buf = binary.AppendVarint(p.buf, start-p.prev)
	p.buf = binary.AppendVarint(p.buf, int64(in))
	p.buf = binary.AppendVarint(p.buf, int64(out))
	flag := byte(0)
	if local {
		flag = 1
	}
	p.buf = append(p.buf, flag)
	p.prev = start
}

// windows returns the windows added since the last call, stored at exact
// length, and empties p for the next device.
func (p *windowPacker) windows() Windows {
	var w Windows
	if len(p.buf) > 0 {
		w.b = make([]byte, len(p.buf))
		copy(w.b, p.buf)
	}
	p.buf, p.prev = p.buf[:0], 0
	return w
}

// unpack decodes the window at b[i:], given the start of the window
// before it, and returns it with the index of the next.
func unpack(b []byte, i int, prev int64) (WireWindow, int) {
	delta, i := varint(b, i)
	in, i := varint(b, i)
	out, i := varint(b, i)
	return WireWindow{StartMicros: prev + delta, BytesIn: int(in), BytesOut: int(out), PeerLocal: b[i] != 0}, i + 1
}

// varint decodes the zigzag varint binary.AppendVarint wrote at b[i:] and
// returns it with the index after it.
func varint(b []byte, i int) (int64, int) {
	var ux uint64
	for shift := uint(0); ; shift += 7 {
		c := b[i]
		i++
		ux |= uint64(c&0x7f) << (shift & 63) // a varint is at most 10 bytes
		if c < 0x80 {
			return int64(ux>>1) ^ -int64(ux&1), i
		}
	}
}
