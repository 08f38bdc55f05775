package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// readNameOracle is the strings.Builder readName that the stack-buffer
// version replaced, kept as the reference the new one must match exactly.
func readNameOracle(data []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	end := off
	for hops := 0; ; hops++ {
		if hops > 32 {
			return "", 0, fmt.Errorf("dnsmsg: compression loop")
		}
		if off >= len(data) {
			return "", 0, fmt.Errorf("dnsmsg: truncated name")
		}
		l := int(data[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return sb.String(), end, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, fmt.Errorf("dnsmsg: truncated pointer")
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3fff)
			if !jumped {
				end = off + 2
				jumped = true
			}
			if ptr >= off {
				return "", 0, fmt.Errorf("dnsmsg: forward pointer")
			}
			off = ptr
		default:
			if off+1+l > len(data) {
				return "", 0, fmt.Errorf("dnsmsg: truncated label")
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(data[off+1 : off+1+l])
			off += 1 + l
		}
	}
}

// checkReadNameAt fails t unless readName and the oracle agree on the
// name, end offset and error-ness at every offset of data.
func checkReadNameAt(t *testing.T, data []byte) {
	t.Helper()
	for off := 0; off <= len(data); off++ {
		name, end, err := readName(data, off)
		wantName, wantEnd, wantErr := readNameOracle(data, off)
		if name != wantName || end != wantEnd || (err == nil) != (wantErr == nil) {
			t.Fatalf("readName(%x, %d) = %q, %d, %v; oracle %q, %d, %v",
				data, off, name, end, err, wantName, wantEnd, wantErr)
		}
	}
}

// longName is a name of n maximal (63-byte) labels. Past four labels it is
// longer than the 255-byte legal maximum and spills out of readName's stack
// buffer; past 32 it trips the hop limit.
func longName(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, 63)
		b = append(b, strings.Repeat(string(rune('a'+i%26)), 63)...)
	}
	return append(b, 0)
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink *Message

func BenchmarkUnmarshal(b *testing.B) {
	data := (&Message{Response: true, Authority: true, Answers: []Record{
		{Name: "_hue._tcp.local", Type: TypePTR, Class: ClassIN, TTL: 4500,
			Target: "Philips Hue - 685F61._hue._tcp.local"},
	}, Extra: []Record{
		{Name: "Philips Hue - 685F61._hue._tcp.local", Type: TypeSRV, Class: ClassIN, TTL: 120,
			Port: 443, Target: "Philips-hue.local"},
		{Name: "Philips Hue - 685F61._hue._tcp.local", Type: TypeTXT, Class: ClassIN, TTL: 4500,
			TXT: []string{"bridgeid=001788fffe685f61", "modelid=BSB002"}},
	}}).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Unmarshal(data)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = m
	}
}
