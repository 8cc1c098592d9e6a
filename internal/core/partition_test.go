package core

import (
	"testing"

	"switchmon/internal/packet"
	"switchmon/internal/property"
)

// perSwitchProp builds a two-stage property whose identity pins
// switch.id: a SYN arriving on a switch must egress on that same
// switch within a second.
func perSwitchProp(t *testing.T) *property.Property {
	t.Helper()
	return mustParse(`property "per-switch-delivery" {
  description "test: dpid-scoped delivery"
  on arrival "syn" {
    match tcp.syn == 1
    bind $sw = switch.id
    bind $src = ip.src
  }
  on egress "fwd" within 1s {
    match switch.id == $sw
    match ip.src == $src
  }
}`)
}

// crossSwitchProp correlates events across switches: no switch.id in
// the identity, so dpid partitioning would split an instance's
// evidence across collectors.
func crossSwitchProp(t *testing.T) *property.Property {
	t.Helper()
	return mustParse(`property "cross-switch-delivery" {
  description "test: fabric-wide delivery"
  on arrival "in" {
    match tcp.syn == 1
    bind $src = ip.src
    bind $dst = ip.dst
  }
  on egress "out" within 1s {
    match ip.src == $src
    match ip.dst == $dst
  }
}`)
}

func TestDPIDPartitionable(t *testing.T) {
	ok, err := DPIDPartitionable(perSwitchProp(t))
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	if !ok {
		t.Fatal("per-switch property reported not dpid-partitionable")
	}
	ok, err = DPIDPartitionable(crossSwitchProp(t))
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	if ok {
		t.Fatal("cross-switch property reported dpid-partitionable")
	}
}

func TestValidateDPIDPartition(t *testing.T) {
	if err := ValidateDPIDPartition([]*property.Property{perSwitchProp(t)}); err != nil {
		t.Fatalf("clean set rejected: %v", err)
	}
	err := ValidateDPIDPartition([]*property.Property{perSwitchProp(t), crossSwitchProp(t)})
	if err == nil {
		t.Fatal("cross-switch property accepted")
	}
}

func TestIdentityPartitionFunc(t *testing.T) {
	key, err := IdentityPartitionFunc([]*property.Property{crossSwitchProp(t)})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	tcp := packet.NewTCP(packet.MustMAC("02:00:00:00:00:0a"), packet.MustMAC("02:00:00:00:00:0b"),
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"), 1234, 80, packet.FlagSYN, nil)
	e1 := Event{Kind: KindArrival, SwitchID: 1, Packet: tcp}
	e2 := Event{Kind: KindEgress, SwitchID: 2, Packet: tcp, OutPort: 3}
	k1, ok1 := key(&e1)
	k2, ok2 := key(&e2)
	if !ok1 || !ok2 {
		t.Fatal("events carrying the identity fields reported unroutable")
	}
	if k1 != k2 {
		t.Fatalf("same flow keyed differently across switches: %x vs %x", k1, k2)
	}
	// An out-of-band event carries no IP fields: unroutable by design,
	// and by the analysis no instance can consume it.
	oob := Event{Kind: KindOutOfBand, SwitchID: 1, OOBKind: packet.OOBLinkDown, OOBPort: 2}
	if _, ok := key(&oob); ok {
		t.Fatal("field-less event reported routable")
	}
	// A set whose members key on different identities has no shared
	// event-level key.
	if _, err := IdentityPartitionFunc([]*property.Property{crossSwitchProp(t), perSwitchProp(t)}); err == nil {
		t.Fatal("disagreeing identity sets accepted")
	}
}
