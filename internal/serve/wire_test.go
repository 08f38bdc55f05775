package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"sort"
	"testing"

	"iotlan/internal/inspector"
)

// TestIngestNonCanonicalBodies posts upload bodies that depart from the
// canonical wire record — each way the documented JSON format allows or
// rejects — and requires what the decoder before the one-pass parser made
// of them: the same stored households, or the same 400 or 413. The
// malformed OUIs are the one intended difference: that decoder stored
// them as some other OUI with a 200, and now they answer 400 on both sides
// because the oracle shares the strict inspector.ParseOUI.
func TestIngestNonCanonicalBodies(t *testing.T) {
	const limit = 64 << 10
	ds := inspector.Generate(61, 20)
	a, b := ds.Households[0], ds.Households[1]
	ra, rb := a.WireRecord(), b.WireRecord()
	lines := func(recs ...[]byte) []byte { return append(bytes.Join(recs, []byte{'\n'}), '\n') }
	pretty, err := json.MarshalIndent(a.Wire(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(map[string]any{"id": a.ID, "devices": a.Wire().Devices})
	if err != nil {
		t.Fatal(err)
	}
	oui := []byte(`"oui":"` + a.Devices[0].OUI.String() + `"`)
	small := func(device string) []byte {
		return []byte(`{"id":"u1","devices":[{"id":"d1",` + device + `}]}` + "\n")
	}
	const product = `"product":{"vendor":"v","category":"c"}`
	const okOUI = `"oui":"aa:bb:cc",`
	over := wireBody(t, ds.Households...)
	if len(over) <= limit {
		t.Fatalf("oversized body only %d bytes", len(over))
	}

	const ok, bad, tooBig = http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge
	for _, c := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"canonical", lines(ra, rb), ok},
		{"pretty-printed", append(pretty, '\n'), ok},
		{"keys reordered", lines(reordered, rb), ok},
		{"ID for id", lines(ra, bytes.Replace(rb, []byte(`{"id":`), []byte(`{"ID":`), 1)), ok},
		{"upper-case OUI", lines(bytes.Replace(ra, oui, bytes.ToUpper(oui), 1), rb), ok},
		{"popularity 0", small(okOUI + `"product":{"vendor":"v","category":"c","popularity":0}`), ok},
		{"local false", small(okOUI + `"windows":[{"start_us":1,"in":2,"out":3,"local":false}],` + product), ok},
		{"empty mdns", small(okOUI + `"mdns":[],` + product), ok},
		{"replacement escape", small(okOUI + `"user_label":"a` + "\\u" + `fffdb",` + product), ok},
		{"solidus escape", small(okOUI + `"user_label":"a\/b",` + product), ok},
		{"CRLF", bytes.ReplaceAll(lines(ra, rb), []byte{'\n'}, []byte("\r\n")), ok},
		{"two on one line", append(bytes.Join([][]byte{ra, rb}, []byte{' '}), '\n'), ok},
		{"split over lines", lines(bytes.Replace(ra, []byte(`,"devices":`), []byte(",\n\"devices\":"), 1), rb), ok},
		{"cut mid-record", append(lines(ra), rb[:len(rb)/2]...), bad},
		{"over the limit", over, tooBig},
		{"garbage past the limit", append([]byte("not json\n"), over...), bad},
		{"OUI aab:bb:cc", small(`"oui":"aab:bb:cc",` + product), bad},
		{"OUI 0x:bb:cc", small(`"oui":"0x:bb:cc",` + product), bad},
		{"OUI +a:bb:cc", small(`"oui":"+a:bb:cc",` + product), bad},
		{"OUI leading space", small(`"oui":" aa:bb:cc",` + product), bad},
		{"OUI a:b:c", small(`"oui":"a:b:c",` + product), bad},
	} {
		want, status := oracleUpload(c.body, limit)
		if status != c.status || (status == ok && len(want) == 0) {
			t.Fatalf("%s: the old decoder answers %d with %d households; the table says %d", c.name, status, len(want), c.status)
		}
		s := newTestServer(t, Config{Workers: 2, MaxUploadBytes: limit})
		if w := do(s, "POST", "/v1/ingest/inspector", c.body); w.Code != status {
			t.Errorf("%s: status %d, want %d; body %s", c.name, w.Code, status, w.Body.String())
			continue
		}
		if got := storedHouseholds(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stored %d households differ from the %d the old decoder made", c.name, len(got), len(want))
		}
	}
}

// oracleUpload is what the decoder before the one-pass parser made of an
// upload body under a MaxUploadBytes limit: one json.Decoder over the whole
// body. It returns the households an accepted body stores, sorted by ID
// with the last record of each ID kept, and the status.
func oracleUpload(body []byte, limit int64) ([]*inspector.Household, int) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	byID := map[string]*inspector.Household{}
	for {
		var w inspector.WireHousehold
		err := dec.Decode(&w)
		if err == io.EOF {
			break
		}
		var h *inspector.Household
		if err == nil {
			h, err = w.Household()
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge
		}
		if err != nil {
			return nil, http.StatusBadRequest
		}
		byID[h.ID] = h
	}
	var out []*inspector.Household
	for _, h := range byID {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, http.StatusOK
}

// storedHouseholds returns every shard's inspector households, sorted by ID.
func storedHouseholds(s *Server) []*inspector.Household {
	var out []*inspector.Household
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.inspectorSnapshot()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
