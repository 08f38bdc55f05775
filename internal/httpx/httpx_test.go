package httpx

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

func TestRequestRoundTrip(t *testing.T) {
	r := &Request{
		Method:  "GET",
		Path:    "/description.xml",
		Headers: map[string]string{"User-Agent": "Chromecast/1.56 CrKey/1.56.500000"},
	}
	got, err := ParseRequest(MarshalRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Path != "/description.xml" {
		t.Fatalf("request: %+v", got)
	}
	if got.Headers["user-agent"] != "Chromecast/1.56 CrKey/1.56.500000" {
		t.Fatalf("UA: %q", got.Headers["user-agent"])
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := &Response{
		Status:  200,
		Headers: map[string]string{"Server": "Linux/3.14 UPnP/1.0 IpBridge/1.56.0"},
		Body:    []byte("<root/>"),
	}
	got, err := ParseResponse(MarshalResponse(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != 200 || string(got.Body) != "<root/>" {
		t.Fatalf("response: %+v", got)
	}
	if got.Header("SERVER") != "Linux/3.14 UPnP/1.0 IpBridge/1.56.0" {
		t.Fatalf("Server: %q", got.Header("SERVER"))
	}
	if got.Header("content-length") != "7" {
		t.Fatalf("Content-Length: %q", got.Header("content-length"))
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{"", "GARBAGE", "GET /\r\n\r\n", "HTTP/1.1 abc OK\r\n\r\n"} {
		if _, err := ParseRequest([]byte(bad)); err == nil && !strings.HasPrefix(bad, "GET") {
			t.Errorf("ParseRequest(%q) accepted", bad)
		}
	}
	if _, err := ParseResponse([]byte("HTTP/1.1 abc OK\r\n\r\n")); err == nil {
		t.Fatal("bad status code accepted")
	}
	if _, err := ParseResponse([]byte("nonsense\r\n\r\n")); err == nil {
		t.Fatal("bad status line accepted")
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		ParseRequest(data)
		ParseResponse(data)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func setup() (*sim.Scheduler, *lan.Network, func(byte) *stack.Host) {
	s := sim.NewScheduler(1)
	n := lan.New(s)
	return s, n, func(last byte) *stack.Host {
		h := stack.NewHost(n, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
		h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
		return h
	}
}

func TestServerRoutesAndBanners(t *testing.T) {
	sched, _, mk := setup()
	hue := mk(23)
	srv := NewServer(hue, 80, "Linux/3.14 UPnP/1.0 IpBridge/1.56.0")
	srv.Handle("/description.xml", func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("<friendlyName>Hue</friendlyName>")}
	})

	phone := mk(50)
	var got *Response
	Get(phone, hue.IPv4(), 80, "/description.xml", nil, func(r *Response) { got = r })
	sched.RunFor(time.Second)

	if got == nil || got.Status != 200 {
		t.Fatalf("response: %+v", got)
	}
	if !strings.Contains(string(got.Body), "friendlyName") {
		t.Fatalf("body: %q", got.Body)
	}
	if got.Header("server") != "Linux/3.14 UPnP/1.0 IpBridge/1.56.0" {
		t.Fatalf("banner: %q", got.Header("server"))
	}
}

func Test404AndRefused(t *testing.T) {
	sched, _, mk := setup()
	dev := mk(23)
	NewServer(dev, 80, "mini")

	phone := mk(50)
	var status int
	Get(phone, dev.IPv4(), 80, "/nope", nil, func(r *Response) { status = r.Status })
	sched.RunFor(time.Second)
	if status != 404 {
		t.Fatalf("status %d", status)
	}

	refused := false
	Get(phone, dev.IPv4(), 8080, "/", nil, func(r *Response) { refused = r == nil })
	sched.RunFor(time.Second)
	if !refused {
		t.Fatal("closed port did not signal refusal")
	}
}

func TestPostBody(t *testing.T) {
	sched, _, mk := setup()
	dev := mk(23)
	srv := NewServer(dev, 80, "soap")
	var gotBody string
	srv.Handle("/upnp/control", func(req *Request) *Response {
		gotBody = string(req.Body)
		return &Response{Status: 200}
	})
	phone := mk(50)
	Post(phone, dev.IPv4(), 80, "/upnp/control",
		map[string]string{"SOAPACTION": `"urn:dial-multiscreen-org:service:dial:1#Launch"`},
		[]byte("<s:Envelope/>"), nil)
	sched.RunFor(time.Second)
	if gotBody != "<s:Envelope/>" {
		t.Fatalf("body: %q", gotBody)
	}
}

func TestOnRequestHook(t *testing.T) {
	sched, _, mk := setup()
	dev := mk(23)
	srv := NewServer(dev, 80, "")
	var from netip.Addr
	srv.OnRequest = func(req *Request) { from = req.From }
	phone := mk(50)
	Get(phone, dev.IPv4(), 80, "/", nil, nil)
	sched.RunFor(time.Second)
	if from != phone.IPv4() {
		t.Fatalf("From = %v", from)
	}
}
