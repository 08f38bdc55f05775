// Package httpx implements a minimal HTTP/1.1 server and client over the
// simulated TCP stack. Plaintext HTTP is one of the study's main exposure
// channels: device description XML, SOAP control endpoints, camera snapshot
// services, and Server/User-Agent headers leaking OS and firmware versions
// (§5.2).
//
// httpx is the callback-idiom server for simulated device firmware —
// hundreds of tiny endpoints that live entirely on the event loop. New code
// that wants real stdlib HTTP semantics (net/http handlers, streaming
// bodies, middleware) should instead serve an ordinary http.Server over a
// vnet.Listener; see internal/vnet and DESIGN.md "Virtual net" for the
// split.
package httpx

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"iotlan/internal/stack"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Headers map[string]string
	Body    []byte
	// From is the client address (filled by the server).
	From netip.Addr
}

// Response is an HTTP response.
type Response struct {
	Status  int
	Reason  string
	Headers map[string]string
	Body    []byte
}

// Header returns a response header, case-insensitively.
func (r *Response) Header(k string) string { return r.Headers[strings.ToLower(k)] }

func reasonFor(code int) string {
	switch code {
	case 200:
		return "OK"
	case 401:
		return "Unauthorized"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	}
	return "Unknown"
}

// MarshalRequest renders a request on the wire.
func MarshalRequest(r *Request) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s HTTP/1.1\r\n", r.Method, r.Path)
	writeHeaders(&sb, r.Headers, len(r.Body))
	sb.Write(r.Body)
	return []byte(sb.String())
}

// MarshalResponse renders a response on the wire.
func MarshalResponse(r *Response) []byte {
	reason := r.Reason
	if reason == "" {
		reason = reasonFor(r.Status)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", r.Status, reason)
	writeHeaders(&sb, r.Headers, len(r.Body))
	sb.Write(r.Body)
	return []byte(sb.String())
}

func writeHeaders(sb *strings.Builder, h map[string]string, bodyLen int) {
	keys := make([]string, 0, len(h))
	hasCL := false
	for k := range h {
		keys = append(keys, k)
		if strings.EqualFold(k, "Content-Length") {
			hasCL = true
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(sb, "%s: %s\r\n", k, h[k])
	}
	if !hasCL && bodyLen > 0 {
		fmt.Fprintf(sb, "Content-Length: %d\r\n", bodyLen)
	}
	sb.WriteString("\r\n")
}

// ParseRequest decodes a request from wire bytes.
func ParseRequest(data []byte) (*Request, error) {
	head, body, err := splitMessage(data)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("httpx: bad request line %q", lines[0])
	}
	return &Request{
		Method:  parts[0],
		Path:    parts[1],
		Headers: parseHeaders(lines[1:]),
		Body:    body,
	}, nil
}

// ParseResponse decodes a response from wire bytes.
func ParseResponse(data []byte) (*Response, error) {
	head, body, err := splitMessage(data)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("httpx: bad status line %q", lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("httpx: bad status code %q", parts[1])
	}
	resp := &Response{Status: code, Headers: parseHeaders(lines[1:]), Body: body}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	return resp, nil
}

func splitMessage(data []byte) (string, []byte, error) {
	s := string(data)
	idx := strings.Index(s, "\r\n\r\n")
	if idx < 0 {
		return "", nil, fmt.Errorf("httpx: no header terminator")
	}
	return s[:idx], data[idx+4:], nil
}

func parseHeaders(lines []string) map[string]string {
	h := make(map[string]string, len(lines))
	for _, l := range lines {
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			continue
		}
		h[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return h
}

// Handler serves one request.
type Handler func(req *Request) *Response

// Server is an HTTP server bound to one TCP port of a host.
type Server struct {
	Host *stack.Host
	Port uint16
	// ServerHeader is emitted on every response (the banner Nessus grabs).
	ServerHeader string

	mux map[string]Handler
	// OnRequest observes every request (honeypot/analysis hook).
	OnRequest func(req *Request)
}

// NewServer creates and starts an HTTP server on port.
func NewServer(h *stack.Host, port uint16, serverHeader string) *Server {
	s := &Server{Host: h, Port: port, ServerHeader: serverHeader, mux: make(map[string]Handler)}
	h.ListenTCP(port, s.onAccept)
	return s
}

// Handle registers a handler for an exact path.
func (s *Server) Handle(path string, fn Handler) { s.mux[path] = fn }

func (s *Server) onAccept(c *stack.TCPConn) {
	c.OnData = func(c *stack.TCPConn, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			c.Send(MarshalResponse(&Response{Status: 500, Headers: s.baseHeaders()}))
			return
		}
		remote, _ := c.Remote()
		req.From = remote
		if s.OnRequest != nil {
			s.OnRequest(req)
		}
		h, ok := s.mux[req.Path]
		if !ok {
			h = func(*Request) *Response {
				return &Response{Status: 404, Body: []byte("not found")}
			}
		}
		resp := h(req)
		if resp == nil {
			resp = &Response{Status: 500}
		}
		if resp.Headers == nil {
			resp.Headers = map[string]string{}
		}
		for k, v := range s.baseHeaders() {
			if _, exists := resp.Headers[k]; !exists {
				resp.Headers[k] = v
			}
		}
		c.Send(MarshalResponse(resp))
	}
}

func (s *Server) baseHeaders() map[string]string {
	h := map[string]string{}
	if s.ServerHeader != "" {
		h["Server"] = s.ServerHeader
	}
	return h
}

// Get issues a GET and invokes done with the parsed response (nil on
// connection refusal).
func Get(h *stack.Host, dst netip.Addr, port uint16, path string, headers map[string]string, done func(*Response)) {
	req := &Request{Method: "GET", Path: path, Headers: headers}
	do(h, dst, port, req, done)
}

// Post issues a POST (SOAP control, upload endpoints).
func Post(h *stack.Host, dst netip.Addr, port uint16, path string, headers map[string]string, body []byte, done func(*Response)) {
	req := &Request{Method: "POST", Path: path, Headers: headers, Body: body}
	do(h, dst, port, req, done)
}

func do(h *stack.Host, dst netip.Addr, port uint16, req *Request, done func(*Response)) {
	conn := h.DialTCP(dst, port)
	conn.OnConnect = func(c *stack.TCPConn) { c.Send(MarshalRequest(req)) }
	conn.OnData = func(c *stack.TCPConn, data []byte) {
		resp, err := ParseResponse(data)
		if err == nil && done != nil {
			done(resp)
		}
		c.Close()
	}
	conn.OnRefused = func(*stack.TCPConn) {
		if done != nil {
			done(nil)
		}
	}
}
