// Package mdns implements the multicast DNS responder and querier (RFC 6762
// subset) that drive the study's richest identifier-exposure channel:
// service instance names carrying MAC addresses, device IDs, serial numbers
// and user-chosen display names (§5.1, Table 5).
package mdns

import (
	"net/netip"
	"strings"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/netx"
	"iotlan/internal/stack"
)

// Port is the mDNS UDP port.
const Port = 5353

// ServiceEnum is the DNS-SD meta-query name.
const ServiceEnum = "_services._dns-sd._udp.local"

// Service is one advertised DNS-SD service instance.
type Service struct {
	// Instance is the service instance label, e.g.
	// "Philips Hue - 685F61". Identifier exposure lives here.
	Instance string
	// Type is the service type, e.g. "_hue._tcp.local".
	Type string
	// Port is the SRV port.
	Port uint16
	// TXT carries key=value metadata (bridgeid=…, model=…).
	TXT []string
}

// InstanceName returns the full instance domain name.
func (s Service) InstanceName() string { return s.Instance + "." + s.Type }

// replyMemoMax bounds a responder's memo of replies. A lab responder sees
// about ten distinct queries, so the bound only stops a stream of novel
// queries from growing the memo without limit.
const replyMemoMax = 64

// Responder answers mDNS queries and announces services.
//
// A responder marshals its reply to a query once and keeps it per query
// payload, so Hostname and Services must not change once it has answered
// a query. The memo is dropped when the host's addresses change (a DHCP
// re-lease) and when it reaches replyMemoMax entries. AnswerUnicast is read
// per reply and may change at any time.
type Responder struct {
	Host *stack.Host
	// Hostname is the device's .local host name (A/AAAA owner).
	Hostname string
	Services []Service
	// AnswerUnicast makes the responder honour QU questions with unicast
	// replies (~20% of lab devices do, §5.1).
	AnswerUnicast bool
	// OnQuery observes every question seen (analysis hook). It fires per
	// question of every query, memoized or not.
	OnQuery func(q dnsmsg.Question, from netip.Addr)

	sock *stack.UDPSock

	// replies is the reply memo, keyed by query payload, with a nil reply
	// for a query that matches nothing (most of them); memoV4 and memoV6
	// are the host addresses its replies carry.
	replies        map[string]*reply
	memoV4, memoV6 netip.Addr
}

// reply is a responder's answer to one query.
type reply struct {
	msg       []byte // the marshalled response
	unicastOK bool   // a question asked for a unicast (QU) response
}

// Start joins the mDNS groups and begins answering.
func (r *Responder) Start() {
	r.Host.JoinGroup(netx.MDNSv4Group)
	if r.Host.Policy.EnableIPv6 {
		r.Host.JoinGroup(netx.MDNSv6Group)
	}
	r.sock = r.Host.OpenUDP(Port, r.onDatagram)
}

// onDatagram answers queries. Most of what reaches port 5353 is other
// stations' responses and announcements, which a responder ignores, so the
// QR bit is read from the header before paying for a full decode. A query
// is multicast to every responder on the LAN; each answers from its memo
// when it has seen the query before, and decodes it only on a miss or for
// OnQuery.
func (r *Responder) onDatagram(dg stack.Datagram) {
	if !dnsmsg.IsQuery(dg.Payload) {
		return
	}
	rep, ok := r.memo(dg.Payload)
	if ok && r.OnQuery == nil {
		r.send(rep, dg)
		return
	}
	m, err := dnsmsg.Unmarshal(dg.Payload)
	if err != nil {
		return
	}
	r.observe(m, dg.Src)
	if !ok {
		rep = r.reply(m)
		r.remember(dg.Payload, rep)
	}
	r.send(rep, dg)
}

// observe fires OnQuery for each of m's questions.
func (r *Responder) observe(m *dnsmsg.Message, from netip.Addr) {
	if r.OnQuery == nil {
		return
	}
	for _, q := range m.Questions {
		r.OnQuery(q, from)
	}
}

// memo returns the reply memoized for a query payload. It first drops the
// memo if the host's addresses are no longer those its replies carry.
func (r *Responder) memo(payload []byte) (*reply, bool) {
	if v4, v6 := r.Host.IPv4(), r.Host.IPv6(); v4 != r.memoV4 || v6 != r.memoV6 {
		clear(r.replies)
		r.memoV4, r.memoV6 = v4, v6
	}
	rep, ok := r.replies[string(payload)]
	return rep, ok
}

// remember memoizes rep for a query payload, starting the memo afresh
// when it is full.
func (r *Responder) remember(payload []byte, rep *reply) {
	if r.replies == nil {
		r.replies = make(map[string]*reply)
	}
	if len(r.replies) >= replyMemoMax {
		clear(r.replies)
	}
	r.replies[string(payload)] = rep
}

// reply builds and marshals the response to m; it is nil when nothing in
// m matches.
func (r *Responder) reply(m *dnsmsg.Message) *reply {
	unicastOK := false
	var answers, extra []dnsmsg.Record
	for _, q := range m.Questions {
		if q.WantsUnicast() {
			unicastOK = true
		}
		answers, extra = r.answersFor(q, answers, extra)
	}
	if len(answers) == 0 {
		return nil
	}
	resp := &dnsmsg.Message{Response: true, Authority: true, Answers: answers, Extra: extra}
	return &reply{msg: resp.Marshal(), unicastOK: unicastOK}
}

// send transmits rep to the sender of dg when it asked for a unicast reply
// and the responder honours that, else to the mDNS group of dg's family.
func (r *Responder) send(rep *reply, dg stack.Datagram) {
	if rep == nil {
		return
	}
	if rep.unicastOK && r.AnswerUnicast {
		r.Host.SendUDP(Port, dg.Src, dg.SrcPort, rep.msg)
		return
	}
	group := netx.MDNSv4Group
	if dg.Src.Is6() {
		group = netx.MDNSv6Group
	}
	r.Host.SendUDP(Port, group, Port, rep.msg)
}

func (r *Responder) answersFor(q dnsmsg.Question, answers, extra []dnsmsg.Record) ([]dnsmsg.Record, []dnsmsg.Record) {
	name := strings.ToLower(q.Name)
	switch {
	case name == strings.ToLower(ServiceEnum):
		for _, s := range r.Services {
			answers = append(answers, dnsmsg.Record{
				Name: ServiceEnum, Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN,
				TTL: 4500, Target: s.Type,
			})
		}
	case q.Type == dnsmsg.TypeA || q.Type == dnsmsg.TypeAAAA || q.Type == dnsmsg.TypeANY:
		if strings.EqualFold(q.Name, r.Hostname) {
			answers = append(answers, r.addrRecords()...)
		}
		if q.Type != dnsmsg.TypeANY {
			break
		}
		fallthrough
	default:
		for _, s := range r.Services {
			if strings.EqualFold(q.Name, s.Type) {
				answers = append(answers, dnsmsg.Record{
					Name: s.Type, Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN,
					TTL: 4500, Target: s.InstanceName(),
				})
				extra = append(extra, r.serviceDetail(s)...)
			}
		}
	}
	return answers, extra
}

func (r *Responder) addrRecords() []dnsmsg.Record {
	var recs []dnsmsg.Record
	if r.Host.IPv4().IsValid() {
		recs = append(recs, dnsmsg.Record{
			Name: r.Hostname, Type: dnsmsg.TypeA,
			Class: dnsmsg.ClassIN | dnsmsg.CacheFlushBit, TTL: 120, Addr: r.Host.IPv4(),
		})
	}
	if r.Host.IPv6().IsValid() {
		recs = append(recs, dnsmsg.Record{
			Name: r.Hostname, Type: dnsmsg.TypeAAAA,
			Class: dnsmsg.ClassIN | dnsmsg.CacheFlushBit, TTL: 120, Addr: r.Host.IPv6(),
		})
	}
	return recs
}

func (r *Responder) serviceDetail(s Service) []dnsmsg.Record {
	recs := []dnsmsg.Record{
		{Name: s.InstanceName(), Type: dnsmsg.TypeSRV,
			Class: dnsmsg.ClassIN | dnsmsg.CacheFlushBit, TTL: 120,
			Port: s.Port, Target: r.Hostname},
		{Name: s.InstanceName(), Type: dnsmsg.TypeTXT,
			Class: dnsmsg.ClassIN | dnsmsg.CacheFlushBit, TTL: 4500,
			TXT: s.TXT},
	}
	return append(recs, r.addrRecords()...)
}

// Announce multicasts an unsolicited response advertising every service —
// the periodic advertisement traffic whose intervals §5.1 measures.
func (r *Responder) Announce() {
	if len(r.Services) == 0 && r.Hostname == "" {
		return
	}
	m := &dnsmsg.Message{Response: true, Authority: true}
	for _, s := range r.Services {
		m.Answers = append(m.Answers, dnsmsg.Record{
			Name: s.Type, Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN,
			TTL: 4500, Target: s.InstanceName(),
		})
		m.Extra = append(m.Extra, r.serviceDetail(s)...)
	}
	if len(m.Answers) == 0 {
		m.Answers = r.addrRecords()
	}
	msg := m.Marshal()
	r.Host.SendUDP(Port, netx.MDNSv4Group, Port, msg)
	if r.Host.Policy.EnableIPv6 {
		r.Host.SendUDP(Port, netx.MDNSv6Group, Port, msg)
	}
}

// Query multicasts a one-shot mDNS question from a bound 5353 socket. For
// receiving responses the caller should run its own Responder-less listener
// via Listen.
func Query(h *stack.Host, serviceType string, unicast bool) {
	class := uint16(dnsmsg.ClassIN)
	if unicast {
		class |= dnsmsg.UnicastQueryBit
	}
	m := &dnsmsg.Message{Questions: []dnsmsg.Question{
		{Name: serviceType, Type: dnsmsg.TypePTR, Class: class},
	}}
	h.SendUDP(Port, netx.MDNSv4Group, Port, m.Marshal())
}

// Listen joins the mDNS group and delivers every parsed response to fn —
// the passive-gathering primitive apps and trackers use (§6.1).
func Listen(h *stack.Host, fn func(m *dnsmsg.Message, from netip.Addr)) *stack.UDPSock {
	h.JoinGroup(netx.MDNSv4Group)
	return h.OpenUDP(Port, func(dg stack.Datagram) {
		m, err := dnsmsg.Unmarshal(dg.Payload)
		if err != nil {
			return
		}
		fn(m, dg.Src)
	})
}
