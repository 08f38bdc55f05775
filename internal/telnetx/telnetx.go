// Package telnetx implements the telnet option negotiation and banner logic
// used by the study's honeypot and by vulnerable camera firmware that still
// ships a telnet daemon (§4.2).
package telnetx

import "bytes"

// Telnet command bytes.
const (
	IAC  = 255
	DONT = 254
	DO   = 253
	WONT = 252
	WILL = 251
)

// Common option codes.
const (
	OptEcho         = 1
	OptSuppressGA   = 3
	OptTerminalType = 24
	OptWindowSize   = 31
)

// Negotiation builds the server's opening IAC sequence.
func Negotiation() []byte {
	return []byte{
		IAC, WILL, OptEcho,
		IAC, WILL, OptSuppressGA,
		IAC, DO, OptTerminalType,
	}
}

// StripIAC removes telnet command sequences, leaving user data.
func StripIAC(in []byte) []byte {
	var out []byte
	for i := 0; i < len(in); i++ {
		if in[i] == IAC && i+2 < len(in) && in[i+1] >= WILL && in[i+1] <= DONT {
			i += 2
			continue
		}
		out = append(out, in[i])
	}
	return out
}

// IsNegotiation reports whether the payload starts with IAC commands
// (the fingerprint scanners use to label a port TELNET).
func IsNegotiation(data []byte) bool {
	return len(data) >= 3 && data[0] == IAC && data[1] >= WILL && data[1] <= DONT
}

// Session is a minimal login state machine for honeypot servers: it presents
// a banner, collects a login/password pair, and always denies.
type Session struct {
	Banner string
	state  int
	user   string
	// Attempts records every credential pair tried (honeypot telemetry).
	Attempts [][2]string
}

// Greeting returns the negotiation bytes plus banner and login prompt.
func (s *Session) Greeting() []byte {
	out := Negotiation()
	out = append(out, []byte(s.Banner+"\r\nlogin: ")...)
	return out
}

// Feed consumes one line of client input and returns the server's reply.
func (s *Session) Feed(line []byte) []byte {
	text := string(bytes.TrimRight(StripIAC(line), "\r\n\x00"))
	switch s.state {
	case 0:
		s.user = text
		s.state = 1
		return []byte("Password: ")
	default:
		s.Attempts = append(s.Attempts, [2]string{s.user, text})
		s.state = 0
		return []byte("\r\nLogin incorrect\r\nlogin: ")
	}
}
