package tlsx

import "testing"

// FuzzDecode asserts the TLS record/handshake inspectors are total over
// arbitrary bytes — they run on every TCP payload the classifier sees.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x16, 0x03, 0x03, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = IsTLS(data)
		if r, err := ParseRecord(data); err == nil {
			_ = r.ContentType
			_ = VersionName(r.WireVersion)
			if r.Hello != nil {
				_ = VersionName(r.Hello.Version)
			}
		}
	})
}
