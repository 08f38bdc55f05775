package inspector

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"iotlan/internal/netx"
)

// The service upload wire format: the JSON shape one household takes on the
// iotserve batch-ingestion endpoint (POST /v1/ingest/inspector). A body is a
// stream of WireHousehold objects — JSON lines, friendly to incremental
// encoding and decoding, so neither uploader nor server ever materializes a
// whole batch. The format is seed-deterministic: encoding a generated
// household always yields the same bytes, and decoding reconstructs a
// Household whose analysis outputs (Table 2 entropy, §7 mitigations,
// Appendix E identification) are byte-identical to the original's.
//
// The only generation-time field that does not cross the wire is the raw
// device MAC: like the real IoT Inspector pipeline, only the salted HMAC
// device ID and the OUI leave the household.

// WireProduct carries the ground-truth product label.
type WireProduct struct {
	Vendor      string `json:"vendor"`
	Category    string `json:"category"`
	ExposesName bool   `json:"exposes_name,omitempty"`
	ExposesUUID bool   `json:"exposes_uuid,omitempty"`
	ExposesMAC  bool   `json:"exposes_mac,omitempty"`
	Popularity  int    `json:"popularity,omitempty"`
}

// WireWindow is one 5-second byte-count window.
type WireWindow struct {
	StartMicros int64 `json:"start_us"`
	BytesIn     int   `json:"in"`
	BytesOut    int   `json:"out"`
	PeerLocal   bool  `json:"local,omitempty"`
}

// WireDevice is one device's crowdsourced record.
type WireDevice struct {
	ID           string       `json:"id"`
	OUI          string       `json:"oui"`
	DHCPHostname string       `json:"dhcp_hostname,omitempty"`
	UserLabel    string       `json:"user_label,omitempty"`
	MDNS         []string     `json:"mdns,omitempty"`
	SSDP         []string     `json:"ssdp,omitempty"`
	Windows      []WireWindow `json:"windows,omitempty"`
	Product      WireProduct  `json:"product"`
}

// WireHousehold is one user's upload unit.
type WireHousehold struct {
	ID      string       `json:"id"`
	Devices []WireDevice `json:"devices"`
}

// Wire converts a household to its upload form.
func (h *Household) Wire() WireHousehold {
	w := WireHousehold{ID: h.ID, Devices: make([]WireDevice, len(h.Devices))}
	for i, d := range h.Devices {
		w.Devices[i] = WireDevice{
			ID:           d.ID,
			OUI:          d.OUI.String(),
			DHCPHostname: d.DHCPHostname,
			UserLabel:    d.UserLabel,
			MDNS:         d.MDNS,
			SSDP:         d.SSDP,
			Windows:      d.Windows.wire(),
			Product: WireProduct{
				Vendor:      d.Product.Vendor,
				Category:    d.Product.Category,
				ExposesName: d.Product.ExposesName,
				ExposesUUID: d.Product.ExposesUUID,
				ExposesMAC:  d.Product.ExposesMAC,
				Popularity:  d.Product.Popularity,
			},
		}
	}
	return w
}

// WireRecord returns the household's canonical wire record: its wire form
// as encoding/json marshals it, without a trailing newline. It is the one
// byte form a household takes outside the process: EncodeWire writes it
// plus '\n', the serving layer's write-ahead log stores it as one record's
// payload, and ContentHash digests it. The bytes come from the one-pass
// encoder in wirecodec.go, byte-identical to json.Marshal(h.Wire()).
//
// The invariant the serving layer relies on: for every record the server
// wrote, sha256(record) == ContentHash of the record decoded with
// DecodeWireRecord. Decoding and re-encoding a WireRecord reproduces it
// byte for byte — the encoding has a fixed field order and no maps, and
// the strings it holds are valid UTF-8 because they were decoded from JSON
// — so recovery can hash the bytes it read instead of re-marshalling.
func (h *Household) WireRecord() []byte {
	return appendWireRecord(make([]byte, 0, wireSizeHint(h)), h)
}

// wireSizeHint estimates the length of h's wire record, so that encoding
// it usually takes one allocation.
func wireSizeHint(h *Household) int {
	n := 32 + len(h.ID)
	for _, d := range h.Devices {
		n += 192 + len(d.ID) + len(d.DHCPHostname) + len(d.UserLabel) +
			len(d.Product.Vendor) + len(d.Product.Category) +
			7*len(d.Windows.b) // a window packs into ~9 bytes and writes ~60
		for _, s := range d.MDNS {
			n += 8 + len(s)
		}
		for _, s := range d.SSDP {
			n += 8 + len(s)
		}
	}
	return n
}

// ContentHash digests a household's wire record — the identity of its
// analysis contribution. The wire encoding is deterministic, so two records
// with equal hashes produce identical singleton partials; the serving layer
// uses this to make refolds idempotent: re-ingesting an unchanged household
// skips the retract/fold and leaves the fleet version unchanged.
func (h *Household) ContentHash() [sha256.Size]byte {
	return sha256.Sum256(h.WireRecord())
}

// DecodeWireRecord decodes one wire record, as WireRecord writes it: the
// one-record decode for bytes the server wrote itself (WAL payloads and
// checkpoint lines). Upload bodies go through WireDecoder instead. A
// canonical record takes the one-pass parser; anything else goes through
// encoding/json, which decides whether it is accepted and how.
func DecodeWireRecord(rec []byte) (*Household, error) {
	var p wireParser
	if h, ok := p.decodeCanonical(rec); ok {
		return h, nil
	}
	var w WireHousehold
	if err := json.Unmarshal(rec, &w); err != nil {
		return nil, fmt.Errorf("inspector: wire decode: %w", err)
	}
	return w.Household()
}

// Household reconstructs the in-memory form, validating the OUI.
func (w WireHousehold) Household() (*Household, error) {
	if w.ID == "" {
		return nil, fmt.Errorf("inspector: wire household without id")
	}
	h := &Household{ID: w.ID, Devices: make([]*Device, len(w.Devices))}
	var windows windowPacker
	for i, wd := range w.Devices {
		oui, err := ParseOUI(wd.OUI)
		if err != nil {
			return nil, fmt.Errorf("inspector: household %s device %d: %w", w.ID, i, err)
		}
		d := &Device{
			ID:           wd.ID,
			OUI:          oui,
			DHCPHostname: wd.DHCPHostname,
			UserLabel:    wd.UserLabel,
			MDNS:         wd.MDNS,
			SSDP:         wd.SSDP,
			Product: Product{
				Vendor:      wd.Product.Vendor,
				Category:    wd.Product.Category,
				ExposesName: wd.Product.ExposesName,
				ExposesUUID: wd.Product.ExposesUUID,
				ExposesMAC:  wd.Product.ExposesMAC,
				Popularity:  wd.Product.Popularity,
			},
		}
		for _, win := range wd.Windows {
			windows.add(win.StartMicros, win.BytesIn, win.BytesOut, win.PeerLocal)
		}
		d.Windows = windows.windows()
		h.Devices[i] = d
	}
	return h, nil
}

// ParseOUI parses the aa:bb:cc vendor-prefix rendering netx.OUI.String
// produces: exactly three two-digit hex octets separated by ':', in either
// case. Anything else is an error, never a silently rewritten OUI.
func ParseOUI(s string) (netx.OUI, error) {
	o, ok := parseOUI(s, true)
	if !ok {
		return o, fmt.Errorf("inspector: invalid OUI %q", s)
	}
	return o, nil
}

// EncodeWire streams households to w as JSON lines: each household's
// WireRecord followed by '\n'. Output is deterministic for a fixed input.
func EncodeWire(w io.Writer, hs []*Household) error {
	var buf []byte
	for _, h := range hs {
		buf = append(appendWireRecord(buf[:0], h), '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// maxWireLine bounds the line WireDecoder buffers for the one-pass parser.
// A longer line goes to encoding/json as read so far, so a body that never
// breaks its line is not held in memory before its first syntax error.
const maxWireLine = 1 << 20

// WireDecoder streams households out of a JSONL (or whitespace-separated
// JSON) upload body, buffering at most a line of it. It reads the body a
// line at a time and decodes each canonical record (a WireRecord line) in
// one pass.
// The first line that is not one — whitespace, a record split over lines
// or sharing one, any JSON spelling WireRecord does not write — and
// everything after it go to a json.Decoder, as the whole body did before
// the one-pass parser existed. So is a line a read error cut short: a
// syntax error before an upload limit is still a syntax error.
type WireDecoder struct {
	r    *bufio.Reader
	long []byte // a line longer than r's buffer, assembled
	eof  bool
	p    wireParser
	dec  *json.Decoder // non-nil once the body left canonical lines
}

// NewWireDecoder returns a streaming decoder over r.
func NewWireDecoder(r io.Reader) *WireDecoder {
	return &WireDecoder{r: bufio.NewReaderSize(r, 16<<10)}
}

// Next returns the next household, or io.EOF cleanly at end of body.
func (d *WireDecoder) Next() (*Household, error) {
	if d.dec == nil {
		if d.eof {
			return nil, io.EOF
		}
		line, err := d.readLine()
		if err == io.EOF {
			if len(line) == 0 {
				return nil, io.EOF
			}
			d.eof = true
		}
		if err == nil || err == io.EOF {
			if h, ok := d.p.decodeCanonical(bytes.TrimSuffix(line, []byte{'\n'})); ok {
				return h, nil
			}
		}
		// The json.Decoder gets its own copy of the line, then the rest of
		// the body: the line may alias the bufio buffer, which reading the
		// rest refills.
		rest := io.Reader(d.r)
		if err != nil && err != bufio.ErrBufferFull {
			rest = errReader{err}
		}
		d.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
	}
	var w WireHousehold
	if err := d.dec.Decode(&w); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("inspector: wire decode: %w", err)
	}
	return w.Household()
}

// readLine returns the next line with its '\n', valid until the next read.
// A line that ends without one comes with the read error that ended it (io.EOF
// at the end of the body), and one past maxWireLine with bufio.ErrBufferFull.
func (d *WireDecoder) readLine() ([]byte, error) {
	line, err := d.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	d.long = append(d.long[:0], line...)
	for err == bufio.ErrBufferFull && len(d.long) < maxWireLine {
		line, err = d.r.ReadSlice('\n')
		d.long = append(d.long, line...)
	}
	return d.long, err
}

// errReader replays the read error that cut a line short, so the
// json.Decoder meets it where the original reader did.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
