package core

import (
	"testing"
	"time"

	"switchmon/internal/packet"
)

// The DNS response-integrity property exercises string-valued instance
// keys (the query name travels through bindings, indexes, and negative
// matches as a string).

func TestDNSResponseMatchViolation(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvLimited}, catalogProp(t, "dns-response-match"))
	q := packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, "bank.example")
	h.forward(q, 1, 2)
	// A response with the right id but the wrong question is forwarded.
	bad := packet.NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "evil.example", packet.MustIPv4("6.6.6.6"))
	h.forward(bad, 2, 1)
	h.wantViolations(1)
	if h.viols[0].Binding("Q") != packet.Str("bank.example") {
		t.Fatalf("Q binding = %v", h.viols[0].Binding("Q"))
	}
}

func TestDNSResponseMatchCorrect(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "dns-response-match"))
	q := packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, "bank.example")
	h.forward(q, 1, 2)
	good := packet.NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "bank.example", packet.MustIPv4("93.184.216.34"))
	h.forward(good, 2, 1)
	h.wantViolations(0)
}

func TestDNSResponseDifferentIDUnrelated(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "dns-response-match"))
	q := packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, "bank.example")
	h.forward(q, 1, 2)
	// Wrong id: not this query's response, property does not fire.
	other := packet.NewDNSResponse(macB, macA, ipB, ipA, 5353, 43, "evil.example", packet.MustIPv4("6.6.6.6"))
	h.forward(other, 2, 1)
	h.wantViolations(0)
}

// The ping-liveness property is the Feature 7 pattern over ICMP.

func TestPingReplyTimeout(t *testing.T) {
	h := newHarness(t, Config{Provenance: ProvFull}, catalogProp(t, "ping-reply-within"))
	req := packet.NewICMPEcho(macA, macB, ipA, ipB, 7, 1, false)
	h.forward(req, 1, 2)
	h.advance(3 * time.Second) // window is 2s
	h.wantViolations(1)
	if h.viols[0].History[1].Event != "timeout" {
		t.Fatalf("history = %+v", h.viols[0].History)
	}
}

func TestPingReplyInTime(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "ping-reply-within"))
	req := packet.NewICMPEcho(macA, macB, ipA, ipB, 7, 1, false)
	h.forward(req, 1, 2)
	h.advance(time.Second)
	reply := packet.NewICMPEcho(macB, macA, ipB, ipA, 7, 1, true)
	h.forward(reply, 2, 1)
	h.advance(5 * time.Second)
	h.wantViolations(0)
}

func TestPingReplyWrongIDDoesNotDischarge(t *testing.T) {
	h := newHarness(t, Config{}, catalogProp(t, "ping-reply-within"))
	req := packet.NewICMPEcho(macA, macB, ipA, ipB, 7, 1, false)
	h.forward(req, 1, 2)
	wrong := packet.NewICMPEcho(macB, macA, ipB, ipA, 8, 1, true) // id 8 != 7
	h.forward(wrong, 2, 1)
	h.advance(3 * time.Second)
	h.wantViolations(1)
}
