package ssdp

import "testing"

// FuzzDecode asserts the SSDP/HTTPU parser and the UPnP description-XML
// parser are total over arbitrary bytes, and that Parse and the kindOf
// start-line peek agree with parseOracle (value and error-ness). go test
// replays the committed corpus (testdata/fuzz/FuzzDecode) through these
// checks.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nST: ssdp:all\r\n\r\n"))
	f.Add([]byte("<root><device><friendlyName>x</friendlyName></device></root>"))
	for _, s := range parseEdgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
		if m, err := Parse(data); err == nil {
			_ = m.Location()
			_ = m.Header("SERVER")
			_ = m.Header("USN")
		}
		if d, err := ParseDevice(data); err == nil {
			_ = d.FriendlyName
			_ = len(d.Services)
		}
	})
}
