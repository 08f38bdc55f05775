package ssdp

import (
	"bufio"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// parseOracle is the bufio-based Parse that the in-place version replaced,
// kept as the reference the new one must match exactly.
func parseOracle(data []byte) (*Message, error) {
	rd := bufio.NewReader(strings.NewReader(string(data)))
	first, err := rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("ssdp: no start line: %w", err)
	}
	first = strings.TrimSpace(first)
	m := &Message{Headers: make(map[string]string)}
	switch {
	case strings.HasPrefix(first, "M-SEARCH"):
		m.Kind = "M-SEARCH"
	case strings.HasPrefix(first, "NOTIFY"):
		m.Kind = "NOTIFY"
	case strings.HasPrefix(first, "HTTP/1.1 200"):
		m.Kind = "RESPONSE"
	default:
		return nil, fmt.Errorf("ssdp: unrecognised start line %q", first)
	}
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		m.Headers[strings.ToUpper(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return m, nil
}

// checkParse fails t unless Parse matches the oracle (value and
// error-ness) and kindOf matches the kind Parse assigns.
func checkParse(t *testing.T, data []byte) {
	t.Helper()
	got, err := Parse(data)
	want, wantErr := parseOracle(data)
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse(%q) = %+v, %v; oracle %+v, %v", data, got, err, want, wantErr)
	}
	wantKind := ""
	if want != nil {
		wantKind = want.Kind
	}
	if k := kindOf(data); k != wantKind {
		t.Fatalf("kindOf(%q) = %q, Parse says %q", data, k, wantKind)
	}
}

// parseEdgeCases are shapes the captured corpus lacks: whitespace and
// line-ending variants, non-ASCII keys, colon-less and trailing lines.
var parseEdgeCases = []string{
	"",
	"\n",
	"M-SEARCH * HTTP/1.1",
	"  NOTIFY * HTTP/1.1\r\nnt: a\r\n",
	"\u00a0M-SEARCH * HTTP/1.1\nst:ssdp:all\n\nAFTER: blank\n",
	"HTTP/1.1 200 OK\nno colon here\n st :  x y \r\nLAST: unterminated",
	"HTTP/1.1 404 Not Found\r\n\r\n",
	"M-SEARCH\r\nk\xffé: v\xfe\r\nÉclair: ß\r\n",
	"NOTIFY\n:\n::\nA:B:C\n",
	"NOTIFY\r\rX: y\r\r\n",
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink *Message

func BenchmarkParse(b *testing.B) {
	ad := Advertisement{
		UUID:     "2f402f80-da50-11e1-9b23-001788685f61",
		Target:   TargetBasic,
		Location: "http://192.168.10.23:80/description.xml",
		Server:   "Linux/3.14 UPnP/1.0 IpBridge/1.56.0",
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"Notify", ad.Notify()},
		{"MSearch", MSearch(TargetAll, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := Parse(c.data)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}
