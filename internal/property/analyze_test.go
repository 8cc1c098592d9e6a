package property

import (
	"testing"

	"switchmon/internal/packet"
)

// goldenFeatures is the derived requirement vector for every catalogue
// property. These are the repository's precise renderings of the paper's
// Table 1 rows; EXPERIMENTS.md discusses the cells where our derivation
// differs from the paper's informal table.
var goldenFeatures = map[string]Features{
	"lswitch-unicast": {
		MaxLayer: packet.Layer2, History: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"lswitch-linkdown": {
		MaxLayer: packet.Layer2, History: true, Obligation: true,
		MultipleMatch: true, OutOfBand: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"firewall-basic": {
		MaxLayer: packet.Layer3, History: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"firewall-timeout": {
		MaxLayer: packet.Layer3, History: true, Timeouts: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"firewall-until-close": {
		MaxLayer: packet.Layer4, History: true, Timeouts: true, Obligation: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"nat-reverse": {
		MaxLayer: packet.Layer4, History: true, Identity: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"arp-proxy-reply": {
		MaxLayer: packet.Layer3, History: true, TimeoutActions: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"arp-known-not-forwarded": {
		MaxLayer: packet.Layer3, History: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"arp-unknown-forwarded": {
		MaxLayer: packet.Layer3, History: true, Obligation: true, Identity: true,
		TimeoutActions: true, DropVisibility: true, EgressVisibility: true,
		InstanceID: IDExact,
	},
	"knock-intervening": {
		MaxLayer: packet.Layer4, History: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"knock-valid-sequence": {
		MaxLayer: packet.Layer4, History: true, Obligation: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"lb-hashed": {
		MaxLayer: packet.Layer4, History: true, Obligation: true, NegMatch: true,
		ExtrinsicState: true, DropVisibility: true, EgressVisibility: true,
		InstanceID: IDSymmetric,
	},
	"lb-round-robin": {
		MaxLayer: packet.Layer4, History: true, Identity: true, MultipleMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"lb-sticky": {
		MaxLayer: packet.Layer4, History: true, Identity: true, Obligation: true,
		NegMatch: true, DropVisibility: true, EgressVisibility: true,
		InstanceID: IDSymmetric,
	},
	"ftp-data-port": {
		MaxLayer: packet.Layer7, History: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDWandering,
	},
	"dhcp-reply-within": {
		MaxLayer: packet.Layer7, History: true, TimeoutActions: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"dhcp-no-reuse": {
		MaxLayer: packet.Layer7, History: true, Timeouts: true, Obligation: true,
		NegMatch: true, DropVisibility: true, EgressVisibility: true,
		InstanceID: IDExact,
	},
	"dhcp-no-overlap": {
		MaxLayer: packet.Layer7, History: true, Timeouts: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDExact,
	},
	"dhcparp-preload": {
		MaxLayer: packet.Layer7, History: true, TimeoutActions: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDWandering,
	},
	"dhcparp-no-direct-reply": {
		MaxLayer: packet.Layer7, History: true, Obligation: true, Sticky: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDWandering,
	},
	"portscan-detect": {
		MaxLayer: packet.Layer4, History: true, Timeouts: true, Counting: true,
		InstanceID: IDExact,
	},
	"heavy-hitter": {
		MaxLayer: packet.Layer4, History: true, Timeouts: true, Counting: true,
		InstanceID: IDExact,
	},
	"dns-response-match": {
		MaxLayer: packet.Layer7, History: true, NegMatch: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
	"ping-reply-within": {
		MaxLayer: packet.Layer4, History: true, TimeoutActions: true,
		DropVisibility: true, EgressVisibility: true, InstanceID: IDSymmetric,
	},
}

func TestAnalyzeCatalog(t *testing.T) {
	entries := Catalog(DefaultParams())
	if len(entries) != len(goldenFeatures) {
		t.Fatalf("catalogue has %d entries, golden table has %d", len(entries), len(goldenFeatures))
	}
	for _, e := range entries {
		want, ok := goldenFeatures[e.Prop.Name]
		if !ok {
			t.Errorf("no golden features for %s", e.Prop.Name)
			continue
		}
		got := Analyze(e.Prop)
		if got != want {
			t.Errorf("Analyze(%s) =\n  %+v\nwant\n  %+v", e.Prop.Name, got, want)
		}
	}
}

func TestAnalyzeSingleStageNoHistory(t *testing.T) {
	ft := Analyze(mustParse(t, `property "single" {
  description "one observation needs no history"
  on arrival "only" { match ip.proto == 6 }
}`))
	if ft.History {
		t.Error("single-stage property reports History")
	}
	if ft.MaxLayer != packet.Layer3 {
		t.Errorf("MaxLayer = %v, want L3", ft.MaxLayer)
	}
}

func TestAnalyzeWindowOnFirstStageIsNotTimeout(t *testing.T) {
	// A window on the first stage has nothing to be relative to; Analyze
	// must not count it.
	p := &Property{Name: "w", Stages: []Stage{
		{Label: "a", SamePacketAs: -1, Window: 1},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if Analyze(p).Timeouts {
		t.Error("first-stage window counted as Timeouts")
	}
}

func TestInstanceIDStrings(t *testing.T) {
	if IDExact.String() != "exact" || IDSymmetric.String() != "symmetric" || IDWandering.String() != "wandering" {
		t.Fatal("InstanceID strings wrong")
	}
	if InstanceID(99).String() != "unknown" {
		t.Fatal("unknown InstanceID string wrong")
	}
}

func TestAnalyzeBindOnlyLayerCounts(t *testing.T) {
	// Binding from an L7 field must raise MaxLayer even with no L7 preds.
	ft := Analyze(mustParse(t, `property "bindlayer" {
  on arrival "a" { bind $X = dhcp.xid }
  on arrival "b" { match dhcp.xid == $X }
}`))
	if ft.MaxLayer != packet.Layer7 {
		t.Errorf("MaxLayer = %v, want L7", ft.MaxLayer)
	}
	if ft.InstanceID != IDExact {
		t.Errorf("InstanceID = %v, want exact", ft.InstanceID)
	}
}
