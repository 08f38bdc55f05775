package inspector

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"time"

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
		wd := WireDevice{
			ID:           d.ID,
			OUI:          d.OUI.String(),
			DHCPHostname: d.DHCPHostname,
			UserLabel:    d.UserLabel,
			MDNS:         d.MDNS,
			SSDP:         d.SSDP,
			Product: WireProduct{
				Vendor:      d.Product.Vendor,
				Category:    d.Product.Category,
				ExposesName: d.Product.ExposesName,
				ExposesUUID: d.Product.ExposesUUID,
				ExposesMAC:  d.Product.ExposesMAC,
				Popularity:  d.Product.Popularity,
			},
		}
		for _, win := range d.Windows {
			wd.Windows = append(wd.Windows, WireWindow{
				StartMicros: win.Start.UnixMicro(),
				BytesIn:     win.BytesIn,
				BytesOut:    win.BytesOut,
				PeerLocal:   win.PeerLocal,
			})
		}
		w.Devices[i] = wd
	}
	return w
}

// WireRecord returns the household's canonical wire record: its wire form
// as encoding/json marshals it, without a trailing newline. It is the one
// byte form a household takes outside the process: EncodeWire writes it
// plus '\n', the serving layer's write-ahead log stores it as one record's
// payload, and ContentHash digests it.
//
// The invariant the serving layer relies on: for every record the server
// wrote, sha256(record) == ContentHash of the record decoded with
// DecodeWireRecord. Decoding and re-encoding a WireRecord reproduces it
// byte for byte — the encoding has a fixed field order and no maps, and
// the strings it holds are valid UTF-8 because they were decoded from JSON
// — so recovery can hash the bytes it read instead of re-marshalling.
func (h *Household) WireRecord() []byte {
	b, err := json.Marshal(h.Wire())
	if err != nil { // unreachable: wire types always marshal
		panic(fmt.Sprintf("inspector: marshal household %s: %v", h.ID, err))
	}
	return b
}

// ContentHash digests a household's wire record — the identity of its
// analysis contribution. The wire encoding is deterministic, so two records
// with equal hashes produce identical singleton partials; the serving layer
// uses this to make refolds idempotent: re-ingesting an unchanged household
// skips the retract/fold and the shard version bump, keeping warm caches
// warm.
func (h *Household) ContentHash() [sha256.Size]byte {
	return sha256.Sum256(h.WireRecord())
}

// DecodeWireRecord decodes one wire record, as WireRecord writes it: the
// one-record decode for bytes the server wrote itself (WAL payloads and
// checkpoint lines). Upload bodies go through WireDecoder instead.
func DecodeWireRecord(rec []byte) (*Household, error) {
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
			d.Windows = append(d.Windows, TrafficWindow{
				Start:     time.UnixMicro(win.StartMicros).UTC(),
				BytesIn:   win.BytesIn,
				BytesOut:  win.BytesOut,
				PeerLocal: win.PeerLocal,
			})
		}
		h.Devices[i] = d
	}
	return h, nil
}

// ParseOUI parses the aa:bb:cc vendor-prefix rendering netx.OUI.String
// produces.
func ParseOUI(s string) (netx.OUI, error) {
	var o netx.OUI
	mac, err := netx.ParseMAC(s + ":00:00:00")
	if err != nil {
		return o, fmt.Errorf("inspector: invalid OUI %q", s)
	}
	return mac.OUI(), nil
}

// EncodeWire streams households to w as JSON lines: each household's
// WireRecord followed by '\n'. Output is deterministic for a fixed input.
func EncodeWire(w io.Writer, hs []*Household) error {
	for _, h := range hs {
		if _, err := w.Write(append(h.WireRecord(), '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WireDecoder streams households out of a JSONL (or whitespace-separated
// JSON) upload body without buffering it.
type WireDecoder struct {
	dec *json.Decoder
}

// NewWireDecoder returns a streaming decoder over r.
func NewWireDecoder(r io.Reader) *WireDecoder {
	return &WireDecoder{dec: json.NewDecoder(r)}
}

// Next returns the next household, or io.EOF cleanly at end of body.
func (d *WireDecoder) Next() (*Household, error) {
	var w WireHousehold
	if err := d.dec.Decode(&w); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("inspector: wire decode: %w", err)
	}
	return w.Household()
}
