package ssdp

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"sort"
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

// formatHeadersOracle is the header writer the fixed-order builders
// replaced: it sorted the map's keys and printed one "K: v" line per key.
func formatHeadersOracle(h map[string]string) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s: %s\r\n", k, h[k])
	}
	sb.WriteString("\r\n")
	return sb.String()
}

func mSearchOracle(target string, mx int) []byte {
	return []byte("M-SEARCH * HTTP/1.1\r\n" + formatHeadersOracle(map[string]string{
		"HOST": "239.255.255.250:1900",
		"MAN":  `"ssdp:discover"`,
		"MX":   fmt.Sprint(mx),
		"ST":   target,
	}))
}

func notifyOracle(a Advertisement) []byte {
	return []byte("NOTIFY * HTTP/1.1\r\n" + formatHeadersOracle(map[string]string{
		"HOST":          "239.255.255.250:1900",
		"CACHE-CONTROL": "max-age=1800",
		"LOCATION":      a.Location,
		"NT":            a.Target,
		"NTS":           "ssdp:alive",
		"SERVER":        a.Server,
		"USN":           "uuid:" + a.UUID + "::" + a.Target,
	}))
}

func responseOracle(a Advertisement, st string) []byte {
	return []byte("HTTP/1.1 200 OK\r\n" + formatHeadersOracle(map[string]string{
		"CACHE-CONTROL": "max-age=1800",
		"EXT":           "",
		"LOCATION":      a.Location,
		"SERVER":        a.Server,
		"ST":            st,
		"USN":           "uuid:" + a.UUID + "::" + st,
	}))
}

// The builders write each datagram's headers in the order the oracle's
// sort gives them, over ads with empty and non-empty fields.
func TestBuildersMatchOracle(t *testing.T) {
	ads := []Advertisement{
		{},
		{UUID: "2f402f80-da50-11e1-9b23-001788685f61", Target: TargetBasic,
			Location: "http://192.168.10.23:80/description.xml", Server: "Linux/3.14 UPnP/1.0 IpBridge/1.56.0"},
		{UUID: "tv", Target: TargetDial},
		{Location: "http://192.168.10.9:49152/desc.xml", Server: "x: y"},
	}
	targets := []string{"", TargetAll, TargetRootDevice, TargetIGD, "uuid:tv", "st with spaces"}
	check := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\ngot    %q\noracle %q", what, got, want)
		}
	}
	for _, st := range targets {
		for _, mx := range []int{0, 2, 5, -1, 120} {
			check(fmt.Sprintf("MSearch(%q, %d)", st, mx), MSearch(st, mx), mSearchOracle(st, mx))
		}
	}
	for _, ad := range ads {
		check(fmt.Sprintf("%+v.Notify()", ad), ad.Notify(), notifyOracle(ad))
		for _, st := range targets {
			check(fmt.Sprintf("%+v.Response(%q)", ad, st), ad.Response(st), responseOracle(ad, st))
		}
	}
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
