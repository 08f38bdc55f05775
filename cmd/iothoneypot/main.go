// Command iothoneypot runs the protocol honeypot on a real network using the
// standard library: SSDP, HTTP device-description and telnet responders that
// embed a honeytoken in every identifying field and log each interaction.
//
// Usage:
//
//	iothoneypot [-ssdp :1900] [-http :8080] [-telnet :2323] [-interval 10s]
//
// Low ports require elevated privileges; the defaults avoid :23.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"iotlan/internal/honeypot"
)

func main() {
	ssdpAddr := flag.String("ssdp", ":1900", "SSDP UDP listen address")
	httpAddr := flag.String("http", ":8080", "HTTP TCP listen address")
	telnetAddr := flag.String("telnet", ":2323", "telnet TCP listen address")
	interval := flag.Duration("interval", 10*time.Second, "stats print interval")
	seed := flag.Int64("seed", time.Now().UnixNano(), "honeytoken seed")
	flag.Parse()

	hp := honeypot.New("iothoneypot", *seed)
	srv := &honeypot.Server{HP: hp, SSDPAddr: *ssdpAddr, HTTPAddr: *httpAddr, TelnetAddr: *telnetAddr}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := srv.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("honeypot up: ssdp=%s http=%s telnet=%s\nhoneytoken: %s\n",
		*ssdpAddr, *httpAddr, *telnetAddr, hp.Token)
	fmt.Println("search your exfiltration logs for the token to trace propagation; ^C to stop")

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	printed := 0
	for {
		select {
		case <-ctx.Done():
			final := srv.Snapshot()
			fmt.Printf("\nfinal: %v, %d visitors\n", final.Interactions(), len(final.Visitors()))
			return
		case <-ticker.C:
			events := srv.Snapshot().Events
			for _, e := range events[printed:] {
				fmt.Printf("%s %-7s %-16s %s\n", e.Time.Format("15:04:05"), e.Proto, e.From, e.Detail)
			}
			printed = len(events)
		}
	}
}
