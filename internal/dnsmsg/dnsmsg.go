// Package dnsmsg implements the DNS wire format (RFC 1035) subset used by
// the study's traffic: headers, questions and A/AAAA/PTR/SRV/TXT resource
// records, with compression-pointer decoding. It is shared by the mDNS
// responder, the vulnerable device DNS servers and NetBIOS name service
// (whose packets reuse the DNS header layout).
package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// Record types used in the study.
const (
	TypeA    = 1
	TypeNS   = 2
	TypePTR  = 12
	TypeTXT  = 16
	TypeAAAA = 28
	TypeSRV  = 33
	TypeNB   = 32 // NetBIOS general name service
	TypeNBST = 33 // NetBIOS node status (NBSTAT); value collides with SRV by design
	TypeANY  = 255
)

// ClassIN is the Internet class; mDNS sets the top bit for cache-flush
// (answers) or unicast-response QU (questions).
const (
	ClassIN         = 1
	CacheFlushBit   = 0x8000
	UnicastQueryBit = 0x8000
)

// Question is a DNS question.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// WantsUnicast reports the mDNS QU bit.
func (q Question) WantsUnicast() bool { return q.Class&UnicastQueryBit != 0 }

// Record is a DNS resource record. Exactly one of the typed payload fields
// is meaningful depending on Type.
type Record struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32

	Addr   netip.Addr // A / AAAA
	Target string     // PTR / SRV target
	Port   uint16     // SRV
	TXT    []string   // TXT key=value strings
	Data   []byte     // raw fallback for other types
}

// Message is a DNS message.
type Message struct {
	ID        uint16
	Response  bool
	Authority bool
	Questions []Question
	Answers   []Record
	Extra     []Record
}

func appendName(b []byte, name string) []byte {
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if label == "" {
			continue
		}
		if len(label) > 63 {
			label = label[:63]
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0)
}

// Marshal encodes the message (no name compression; receivers accept both).
func (m *Message) Marshal() []byte {
	b := make([]byte, 12, 256)
	binary.BigEndian.PutUint16(b[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= 0x8000
	}
	if m.Authority {
		flags |= 0x0400
	}
	binary.BigEndian.PutUint16(b[2:4], flags)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(b[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(b[10:12], uint16(len(m.Extra)))
	for _, q := range m.Questions {
		b = appendName(b, q.Name)
		b = binary.BigEndian.AppendUint16(b, q.Type)
		b = binary.BigEndian.AppendUint16(b, q.Class)
	}
	for _, rr := range m.Answers {
		b = appendRecord(b, rr)
	}
	for _, rr := range m.Extra {
		b = appendRecord(b, rr)
	}
	return b
}

func appendRecord(b []byte, rr Record) []byte {
	b = appendName(b, rr.Name)
	b = binary.BigEndian.AppendUint16(b, rr.Type)
	b = binary.BigEndian.AppendUint16(b, rr.Class)
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	var data []byte
	switch rr.Type {
	case TypeA:
		if rr.Addr.Is4() || rr.Addr.Is4In6() {
			a := rr.Addr.As4()
			data = a[:]
		} else {
			data = rr.Data // malformed rdata preserved by Unmarshal
		}
	case TypeAAAA:
		if rr.Addr.IsValid() {
			a := rr.Addr.As16()
			data = a[:]
		} else {
			data = rr.Data // malformed rdata preserved by Unmarshal
		}
	case TypePTR, TypeNS:
		data = appendName(nil, rr.Target)
	case TypeSRV:
		data = make([]byte, 6)
		binary.BigEndian.PutUint16(data[4:6], rr.Port)
		data = appendName(data, rr.Target)
	case TypeTXT:
		for _, s := range rr.TXT {
			if len(s) > 255 {
				s = s[:255]
			}
			data = append(data, byte(len(s)))
			data = append(data, s...)
		}
		if len(data) == 0 {
			data = []byte{0}
		}
	default:
		data = rr.Data
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(data)))
	return append(b, data...)
}

// IsQuery reports whether data holds a complete DNS header with the QR bit
// clear. It reads only the 12-byte header, so a receiver that answers
// queries can drop responses before paying for Unmarshal: whenever Unmarshal
// succeeds, IsQuery(data) == !m.Response.
func IsQuery(data []byte) bool { return len(data) >= 12 && data[2]&0x80 == 0 }

// Unmarshal decodes a DNS message.
func Unmarshal(data []byte) (*Message, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("dnsmsg: short header")
	}
	m := &Message{
		ID:       binary.BigEndian.Uint16(data[0:2]),
		Response: data[2]&0x80 != 0,
	}
	m.Authority = binary.BigEndian.Uint16(data[2:4])&0x0400 != 0
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(data, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(data) {
			return nil, fmt.Errorf("dnsmsg: truncated question")
		}
		q.Type = binary.BigEndian.Uint16(data[off : off+2])
		q.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
		off += 4
		m.Questions = append(m.Questions, q)
	}
	readRRs := func(n int, dst *[]Record) error {
		for i := 0; i < n; i++ {
			var rr Record
			rr.Name, off, err = readName(data, off)
			if err != nil {
				return err
			}
			if off+10 > len(data) {
				return fmt.Errorf("dnsmsg: truncated record header")
			}
			rr.Type = binary.BigEndian.Uint16(data[off : off+2])
			rr.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
			rr.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
			n := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
			off += 10
			if off+n > len(data) {
				return fmt.Errorf("dnsmsg: truncated rdata")
			}
			rdata := data[off : off+n]
			rdStart := off
			off += n
			switch rr.Type {
			case TypeA:
				if n == 4 {
					rr.Addr = netip.AddrFrom4([4]byte(rdata))
				} else {
					rr.Data = append([]byte(nil), rdata...)
				}
			case TypeAAAA:
				if n == 16 {
					rr.Addr = netip.AddrFrom16([16]byte(rdata))
				} else {
					rr.Data = append([]byte(nil), rdata...)
				}
			case TypePTR, TypeNS:
				rr.Target, _, _ = readName(data, rdStart)
			case TypeSRV:
				if n >= 6 {
					rr.Port = binary.BigEndian.Uint16(rdata[4:6])
					rr.Target, _, _ = readName(data, rdStart+6)
				}
			case TypeTXT:
				for p := 0; p < len(rdata); {
					l := int(rdata[p])
					p++
					if p+l > len(rdata) {
						break
					}
					if l > 0 {
						rr.TXT = append(rr.TXT, string(rdata[p:p+l]))
					}
					p += l
				}
			default:
				rr.Data = append([]byte(nil), rdata...)
			}
			*dst = append(*dst, rr)
		}
		return nil
	}
	if err := readRRs(an, &m.Answers); err != nil {
		return nil, err
	}
	var authority []Record
	if err := readRRs(ns, &authority); err != nil {
		return nil, err
	}
	if err := readRRs(ar, &m.Extra); err != nil {
		return nil, err
	}
	return m, nil
}

// readName decodes a (possibly compressed) domain name starting at off. The
// name is assembled in a stack buffer sized for any legal name (255 bytes),
// so the result costs one string allocation; longer (illegal, pointer-built)
// names spill to the heap and decode identically.
func readName(data []byte, off int) (string, int, error) {
	var buf [255]byte
	name := buf[:0]
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
			return string(name), end, nil
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
			if len(name) > 0 {
				name = append(name, '.')
			}
			name = append(name, data[off+1:off+1+l]...)
			off += 1 + l
		}
	}
}
