package inspector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"iotlan/internal/netx"
)

// FuzzDecode checks the one-pass codec against encoding/json, its oracle:
//
//   - (a) bytes the one-pass parser accepts, json.Unmarshal and Household
//     accept too, with a reflect.DeepEqual result, and WireRecord of that
//     result reproduces them;
//   - (b) NewWireDecoder yields the same households as the decoder it
//     replaced (oldWireDecode), and fails at the same record with the same
//     error;
//   - (c) WireRecord of a household built from the fuzzed strings and ints
//     equals json.Marshal of its Wire form, and when its strings are valid
//     UTF-8 the one-pass parser takes that record back unchanged.
//
// Seeds are generated records and bodies covering each way an upload may
// depart from the canonical form.
func FuzzDecode(f *testing.F) {
	g := NewGenerator(1)
	for i := 0; i < 3; i++ {
		f.Add(g.Household(i).WireRecord(), "user|dev|host|vendor|cat", int64(i))
	}
	for _, body := range nonCanonicalBodies(g.Household(3), g.Household(4)) {
		f.Add(body, "a<b>&c\x7f|\xff|"+"\u00e9\u2028\u2029|\b\f\n\r\t\x00\x1f|\"\\", int64(-1)<<63)
	}
	// Windows at the packed form's edges: consecutive starts whose
	// difference overflows int64 either way, and in and out at int's
	// extremes and negative. n = MinInt64|3 gives fuzzHousehold such
	// windows too.
	edges := []byte(fmt.Sprintf(`{"id":"u1","devices":[{"id":"d1","oui":"aa:bb:cc","windows":[`+
		`{"start_us":%d,"in":%d,"out":%d,"local":true},{"start_us":%d,"in":%d,"out":%d},`+
		`{"start_us":-1,"in":-1,"out":-2}],"product":{"vendor":"v","category":"c"}}]}`,
		int64(math.MinInt64), math.MinInt, math.MaxInt, int64(math.MaxInt64), math.MaxInt, math.MinInt))
	f.Add(edges, "u|d|h|v|c", int64(math.MinInt64|3))
	f.Add(append(edges, '\n'), "u|d|h|v|c", int64(-5))
	f.Fuzz(func(t *testing.T, data []byte, s string, n int64) {
		var p wireParser
		if h, ok := p.decodeCanonical(data); ok {
			var w WireHousehold
			if err := json.Unmarshal(data, &w); err != nil {
				t.Fatalf("one-pass parser accepted what json.Unmarshal rejects: %v\n%q", err, data)
			}
			want, err := w.Household()
			if err != nil {
				t.Fatalf("one-pass parser accepted what Household rejects: %v\n%q", err, data)
			}
			if !reflect.DeepEqual(h, want) {
				t.Fatalf("one-pass parse differs from encoding/json:\n%+v\n%+v\n%q", h, want, data)
			}
			if rec := h.WireRecord(); !bytes.Equal(rec, data) {
				t.Fatalf("accepted record does not re-encode to its bytes:\n%q\n%q", data, rec)
			}
		}

		got, gotErr := drainWire(NewWireDecoder(bytes.NewReader(data)))
		want, wantErr := oldWireDecode(bytes.NewReader(data))
		if !reflect.DeepEqual(got, want) || errString(gotErr) != errString(wantErr) {
			t.Fatalf("WireDecoder: %d households, err %v; old decoder: %d households, err %v\n%q",
				len(got), gotErr, len(want), wantErr, data)
		}

		h := fuzzHousehold(data, s, n)
		js, err := json.Marshal(h.Wire())
		if err != nil {
			t.Fatal(err)
		}
		rec := h.WireRecord()
		if !bytes.Equal(rec, js) {
			t.Fatalf("WireRecord differs from json.Marshal:\n%q\n%q", rec, js)
		}
		if h.ID != "" && utf8.ValidString(s) && utf8.Valid(data) {
			back, ok := p.decodeCanonical(rec)
			if !ok {
				t.Fatalf("one-pass parser rejects a WireRecord:\n%q", rec)
			}
			if again := back.WireRecord(); !bytes.Equal(again, rec) {
				t.Fatalf("WireRecord changed across a one-pass decode:\n%q\n%q", rec, again)
			}
		}
	})
}

// oldWireDecode is the upload decoder WireDecoder replaced: one json.Decoder
// over the whole body.
func oldWireDecode(body io.Reader) ([]*Household, error) {
	dec := json.NewDecoder(body)
	var out []*Household
	for {
		var w WireHousehold
		if err := dec.Decode(&w); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("inspector: wire decode: %w", err)
		}
		h, err := w.Household()
		if err != nil {
			return out, err
		}
		out = append(out, h)
	}
}

// drainWire reads d to its end or first error.
func drainWire(d *WireDecoder) ([]*Household, error) {
	var out []*Household
	for {
		h, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, h)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fuzzHousehold builds a household from the fuzzer's strings and ints,
// with every omitempty field on either side of zero across inputs.
func fuzzHousehold(data []byte, s string, n int64) *Household {
	strs := strings.Split(s, "|")
	at := func(i int) string { return strs[i%len(strs)] }
	d := &Device{
		ID:           at(1),
		OUI:          netx.OUI{byte(n), byte(n >> 8), byte(n >> 16)},
		DHCPHostname: at(2),
		UserLabel:    string(data),
		MDNS:         strs[1:],
		Product: Product{
			Vendor:      at(3),
			Category:    at(4),
			ExposesName: n&1 != 0,
			ExposesUUID: n&2 != 0,
			ExposesMAC:  n&4 != 0,
			Popularity:  int(n >> 3),
		},
	}
	if n&8 != 0 {
		d.SSDP = []string{string(data), s}
	}
	// Starts alternate between n and ^n, so n = MinInt64|3 packs start
	// differences that wrap both ways.
	var windows windowPacker
	for i := int64(0); i < n&3; i++ {
		start := n
		if i == 1 {
			start = ^n
		}
		windows.add(start, int(n>>i), int(^n>>i), i == 1)
	}
	d.Windows = windows.windows()
	return &Household{ID: at(0), Devices: []*Device{d, {}}}
}

// nonCanonicalBodies are upload bodies that depart from the canonical form
// in one way each, which encoding/json accepts or rejects while the
// one-pass parser declines them, plus canonical records at the edges of the
// form (the escapes it writes, int64's extremes). a and b supply generated
// records.
func nonCanonicalBodies(a, b *Household) [][]byte {
	ra, rb := a.WireRecord(), b.WireRecord()
	pretty, err := json.MarshalIndent(a.Wire(), "", "  ")
	if err != nil {
		panic(err)
	}
	reordered, err := json.Marshal(map[string]any{"id": a.ID, "devices": a.Wire().Devices})
	if err != nil {
		panic(err)
	}
	oui := []byte(`"oui":"` + a.Devices[0].OUI.String() + `"`)
	small := func(device string) []byte {
		return []byte(`{"id":"u1","devices":[{"id":"d1","oui":"aa:bb:cc",` + device + `}]}` + "\n")
	}
	product := `"product":{"vendor":"v","category":"c"}`
	esc := func(hex string) string { return `\u` + hex }
	lines := func(recs ...[]byte) []byte { return append(bytes.Join(recs, []byte{'\n'}), '\n') }
	return [][]byte{
		lines(ra, rb),
		append(pretty, '\n'),
		lines(reordered, rb),
		lines(ra, bytes.Replace(rb, []byte(`{"id":`), []byte(`{"ID":`), 1)),
		lines(bytes.Replace(ra, oui, bytes.ToUpper(oui), 1), rb),
		small(`"product":{"vendor":"v","category":"c","popularity":0}`),
		small(`"windows":[{"start_us":1,"in":2,"out":3,"local":false}],` + product),
		small(`"mdns":[],` + product),
		small(`"user_label":"a` + esc("fffd") + `b",` + product),
		small(`"user_label":"a\/b",` + product),
		small(`"user_label":"` + esc("003c") + esc("2028") + esc("001f") + `\b",` + product),
		small(`"user_label":"` + esc("003C") + `",` + product),
		small(`"dhcp_hostname":"",` + product),
		small(`"windows":[{"start_us":-0,"in":01,"out":3}],` + product),
		small(`"windows":[{"start_us":9223372036854775808,"in":2,"out":3}],` + product),
		small(`"windows":[{"start_us":-9223372036854775808,"in":2,"out":3}],` + product),
		bytes.ReplaceAll(lines(ra, rb), []byte{'\n'}, []byte("\r\n")),
		append(bytes.Join([][]byte{ra, rb}, []byte{' '}), '\n'),
		lines(bytes.Replace(ra, []byte(`,"devices":`), []byte(",\n\"devices\":"), 1), rb),
		append(lines(ra), rb[:len(rb)/2]...),
		[]byte(`{"id":"u1","devices":[{"id":"d1","oui":"aab:bb:cc",` + product + `}]}`),
		[]byte(`{"id":"","devices":[]}`),
		[]byte("\n\n" + string(ra)),
	}
}
