package property

import (
	_ "embed"
	"time"
)

// catalogSource is the property catalogue: every property discussed in
// the paper, written in the property language.
//
//go:embed catalog.properties
var catalogSource string

// Params carries the catalogue's two timing parameters. The other
// scenario constants (switch port roles, knock sequence, pool size) are
// written in catalog.properties.
type Params struct {
	// FirewallWindow is the stateful firewall's connection idle timeout.
	FirewallWindow time.Duration
	// ReplyWindow is the maximum wait for proxies to answer (ARP, DHCP).
	ReplyWindow time.Duration
}

// DefaultParams returns the windows catalog.properties is written with,
// which the examples, integration tests and benchmarks use.
func DefaultParams() Params {
	return Params{FirewallWindow: 60 * time.Second, ReplyWindow: 2 * time.Second}
}

// catalogGroups is each catalogue property's Table 1 group.
var catalogGroups = map[string]string{
	"lswitch-unicast":         "Learning Switch",
	"lswitch-linkdown":        "Learning Switch",
	"firewall-basic":          "Stateful Firewall",
	"firewall-timeout":        "Stateful Firewall",
	"firewall-until-close":    "Stateful Firewall",
	"nat-reverse":             "NAT",
	"arp-proxy-reply":         "ARP Cache Proxy",
	"arp-known-not-forwarded": "ARP Cache Proxy",
	"arp-unknown-forwarded":   "ARP Cache Proxy",
	"knock-intervening":       "Port Knocking",
	"knock-valid-sequence":    "Port Knocking",
	"lb-hashed":               "Load Balancing",
	"lb-round-robin":          "Load Balancing",
	"lb-sticky":               "Load Balancing",
	"ftp-data-port":           "FTP",
	"dhcp-reply-within":       "DHCP",
	"dhcp-no-reuse":           "DHCP",
	"dhcp-no-overlap":         "DHCP",
	"dhcparp-preload":         "DHCP + ARP Proxy",
	"dhcparp-no-direct-reply": "DHCP + ARP Proxy",
	"portscan-detect":         "Extensions",
	"heavy-hitter":            "Extensions",
	"dns-response-match":      "Extensions",
	"ping-reply-within":       "Extensions",
}

// CatalogEntry pairs a catalogue property with its Table 1 group.
type CatalogEntry struct {
	// Group is the Table 1 grouping ("Stateful Firewall", "DHCP", ...).
	Group string
	Prop  *Property
}

// Catalog parses the catalogue, in file order, with its windows set from
// pm: a window the file writes as DefaultParams' FirewallWindow or
// ReplyWindow becomes pm's.
func Catalog(pm Params) []CatalogEntry {
	props, err := ParseAll(catalogSource)
	if err != nil {
		panic(err)
	}
	def := DefaultParams()
	entries := make([]CatalogEntry, len(props))
	for i, p := range props {
		if pm != def {
			for j := range p.Stages {
				switch w := &p.Stages[j].Window; *w {
				case def.FirewallWindow:
					*w = pm.FirewallWindow
				case def.ReplyWindow:
					*w = pm.ReplyWindow
				}
			}
			if err := p.Validate(); err != nil {
				panic(err)
			}
		}
		entries[i] = CatalogEntry{Group: catalogGroups[p.Name], Prop: p}
	}
	return entries
}

// CatalogByName returns the named catalogue property, or nil.
func CatalogByName(pm Params, name string) *Property {
	for _, e := range Catalog(pm) {
		if e.Prop.Name == name {
			return e.Prop
		}
	}
	return nil
}
