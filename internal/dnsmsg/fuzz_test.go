package dnsmsg

import "testing"

// FuzzDecode asserts Unmarshal is total: arbitrary input must yield either
// an error or a message whose fields are safe to walk — never a panic or a
// hang (compression-pointer loops are the classic DNS parser trap). It is
// also differential: readName must agree with readNameOracle (name, end
// offset and error-ness) at every offset, and the IsQuery header peek with
// the decoded Response bit. go test replays the committed corpus
// (testdata/fuzz/FuzzDecode) through these checks.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0x80})
	for _, labels := range []int{8, 32, 33} {
		f.Add(append([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, longName(labels)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadNameAt(t, data)
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if IsQuery(data) == m.Response {
			t.Fatalf("IsQuery = %v but Response = %v", IsQuery(data), m.Response)
		}
		for _, q := range m.Questions {
			_ = len(q.Name)
		}
		for _, rr := range append(append([]Record(nil), m.Answers...), m.Extra...) {
			_ = len(rr.Name)
			_ = len(rr.Data)
		}
		// A successfully parsed message must re-marshal without panicking.
		_ = m.Marshal()
	})
}
