package device

import (
	"fmt"
	"net/netip"
	"strings"

	"iotlan/internal/dnsmsg"
)

// dnsQuery wraps a parsed query for the embedded (vulnerable) DNS servers
// some devices run (§5.2: HomePod Mini's SheerDNS, the WeMo plug).
type dnsQuery struct {
	msg *dnsmsg.Message
}

func parseDNSQuery(data []byte) (*dnsQuery, error) {
	m, err := dnsmsg.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if m.Response || len(m.Questions) == 0 {
		return nil, fmt.Errorf("device: not a query")
	}
	return &dnsQuery{msg: m}, nil
}

// respond implements three behaviours the Nessus-like scanner exploits:
//   - version.bind TXT → software version disclosure;
//   - hostname.bind / own-name queries → remote host name + private IP;
//   - any recently-resolved name → a cached answer, i.e. cache snooping.
func (q *dnsQuery) respond(ip netip.Addr, hostname string, recent []string) []byte {
	question := q.msg.Questions[0]
	resp := &dnsmsg.Message{ID: q.msg.ID, Response: true, Questions: q.msg.Questions}
	name := strings.ToLower(question.Name)
	switch {
	case name == "version.bind":
		resp.Answers = append(resp.Answers, dnsmsg.Record{
			Name: question.Name, Type: dnsmsg.TypeTXT, Class: question.Class,
			TXT: []string{"SheerDNS 1.0.0"},
		})
	case name == "hostname.bind" || strings.EqualFold(question.Name, hostname) ||
		strings.EqualFold(question.Name, hostname+".local"):
		resp.Answers = append(resp.Answers, dnsmsg.Record{
			Name: question.Name, Type: dnsmsg.TypeTXT, Class: question.Class,
			TXT: []string{hostname, "ip=" + ip.String()},
		})
	default:
		for _, cached := range recent {
			if strings.EqualFold(question.Name, cached) {
				// Cache hit leaks browsing/contact history.
				resp.Answers = append(resp.Answers, dnsmsg.Record{
					Name: question.Name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN,
					TTL: 60, Addr: netip.AddrFrom4([4]byte{17, 253, 144, 10}),
				})
			}
		}
	}
	return resp.Marshal()
}
