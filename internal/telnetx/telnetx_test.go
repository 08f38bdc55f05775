package telnetx

import (
	"strings"
	"testing"
)

func TestNegotiationShape(t *testing.T) {
	n := Negotiation()
	if !IsNegotiation(n) {
		t.Fatal("negotiation bytes not recognised")
	}
	if IsNegotiation([]byte("login: ")) {
		t.Fatal("plain text misdetected as negotiation")
	}
}

func TestStripIAC(t *testing.T) {
	in := append(Negotiation(), []byte("root\r\n")...)
	if got := string(StripIAC(in)); got != "root\r\n" {
		t.Fatalf("StripIAC = %q", got)
	}
}

func TestSessionCollectsCredentials(t *testing.T) {
	s := &Session{Banner: "BusyBox v1.12.1"}
	greet := string(s.Greeting())
	if !strings.Contains(greet, "BusyBox") || !strings.Contains(greet, "login:") {
		t.Fatalf("greeting %q", greet)
	}
	r1 := string(s.Feed([]byte("root\r\n")))
	if !strings.Contains(r1, "Password") {
		t.Fatalf("after login: %q", r1)
	}
	r2 := string(s.Feed([]byte("12345\r\n")))
	if !strings.Contains(r2, "incorrect") {
		t.Fatalf("after password: %q", r2)
	}
	if len(s.Attempts) != 1 || s.Attempts[0] != [2]string{"root", "12345"} {
		t.Fatalf("attempts: %v", s.Attempts)
	}
	// Second round works too.
	s.Feed([]byte("admin\r\n"))
	s.Feed([]byte("admin\r\n"))
	if len(s.Attempts) != 2 || s.Attempts[1] != [2]string{"admin", "admin"} {
		t.Fatalf("attempts: %v", s.Attempts)
	}
}
