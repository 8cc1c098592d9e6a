package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"switchmon/internal/core"
	"switchmon/internal/federation"
	"switchmon/internal/obs"
	"switchmon/internal/packet"
	"switchmon/internal/property"
	"switchmon/internal/sim"
)

// parse builds the engine flag set and parses args into it.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.RegisterEngine(fs)
	f.RegisterHistory(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestEngineConfigFromFlags(t *testing.T) {
	if _, err := parse(t, "-provenance", "loud").EngineConfig(os.Stdout); err == nil {
		t.Error("unknown -provenance accepted")
	}
	if _, err := parse(t, "-tenant-quotas", "a=x").EngineConfig(os.Stdout); err == nil {
		t.Error("malformed -tenant-quotas accepted")
	}
	cfg, err := parse(t).EngineConfig(os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics != nil || cfg.Violations != nil || cfg.Tracer != nil {
		t.Errorf("telemetry built without -metrics-addr/-trace-sample: %+v", cfg)
	}
	if cfg.Provenance != core.ProvLimited || cfg.StateTopK != 32 || cfg.StateSample != 8 {
		t.Errorf("defaults not applied: %+v", cfg)
	}

	var out bytes.Buffer
	cfg, err = parse(t, "-metrics-addr", "127.0.0.1:0", "-trace-sample", "4", "-json",
		"-provenance", "full", "-tenant-quotas", "a=5:2").EngineConfig(&out)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics == nil || cfg.Violations == nil || cfg.Tracer == nil {
		t.Errorf("-metrics-addr/-trace-sample built no telemetry: %+v", cfg)
	}
	if cfg.Provenance != core.ProvFull || cfg.TenantQuotas["a"] != (core.TenantQuota{MaxInstances: 5, MaxQueued: 2}) {
		t.Errorf("flags not applied: %+v", cfg)
	}
	cfg.OnViolation(&core.Violation{Property: "p"})
	if got := out.String(); !strings.HasPrefix(got, "{") || !strings.Contains(got, `"property":"p"`) || !strings.HasSuffix(got, "\n") {
		t.Errorf("-json violation line = %q, want one JSON object per line", got)
	}
}

func TestLoadProperties(t *testing.T) {
	file := filepath.Join(t.TempDir(), "p.properties")
	src := "property \"from-file\" {\n  on arrival \"a\" {\n    match icmp.type == 8\n  }\n}\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	props, err := parse(t, "-catalog", "firewall-basic, nat-reverse", "-props", file).LoadProperties()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, p := range props {
		order = append(order, p.Name)
	}
	if got := strings.Join(order, ","); got != "firewall-basic,nat-reverse,from-file" {
		t.Errorf("loaded %q, want the catalogue names then the file's", got)
	}
	if _, err := parse(t, "-catalog", "no-such").LoadProperties(); err == nil {
		t.Error("unknown catalogue name accepted")
	}
	if props, err := parse(t).LoadProperties(); err != nil || len(props) != 0 {
		t.Errorf("no flags: %v, %v; want nothing loaded", props, err)
	}
}

// TestStartupSetIsOneApply: a daemon applies its -catalog set with one
// Apply (federation.NewPropertySet), and the engine ends where installing
// the set one property at a time left it: the same running names, epoch
// 0 and ledger install records, and the document holds the set in name
// order. A set the engine refuses installs nothing.
func TestStartupSetIsOneApply(t *testing.T) {
	names := []string{"nat-reverse", "firewall-basic", "dhcp-no-reuse"}
	props, err := parse(t, "-catalog", strings.Join(names, ",")).LoadProperties()
	if err != nil {
		t.Fatal(err)
	}
	var byName []*property.Property
	for _, name := range []string{"dhcp-no-reuse", "firewall-basic", "nat-reverse"} {
		byName = append(byName, property.CatalogByName(property.DefaultParams(), name))
	}
	// Both engines also install one property at a time.
	type engine interface {
		core.Engine
		AddProperty(*property.Property) error
	}
	engines := map[string]func() (applied, added engine){
		"Monitor": func() (engine, engine) {
			return core.NewMonitor(sim.NewScheduler(), core.Config{}), core.NewMonitor(sim.NewScheduler(), core.Config{})
		},
		"ShardedMonitor": func() (engine, engine) {
			a, b := core.NewShardedMonitor(2, core.Config{}), core.NewShardedMonitor(2, core.Config{})
			t.Cleanup(a.Close)
			t.Cleanup(b.Close)
			return a, b
		},
	}
	for kind, build := range engines {
		applied, added := build()
		set, err := federation.NewPropertySet(applied, props, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, p := range props {
			if err := added.AddProperty(p); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		doc := set.Doc()
		var docNames []string
		for _, m := range doc.Props {
			docNames = append(docNames, m.Name)
		}
		if got := strings.Join(docNames, ","); doc.Epoch != 0 || got != "dhcp-no-reuse,firewall-basic,nat-reverse" ||
			doc.Source != property.FormatAll(byName) || len(doc.Members) != 0 {
			t.Errorf("%s: document at epoch %d names %s, want the set in name order at epoch 0", kind, doc.Epoch, got)
		}
		if got, want := strings.Join(applied.Properties(), ","), strings.Join(names, ","); got != want {
			t.Errorf("%s: engine runs %s, want %s", kind, got, want)
		}
		if applied.Epoch() != 0 || applied.Stats().LifecycleEpoch != 0 {
			t.Errorf("%s: Epoch %d, LifecycleEpoch %d; want 0", kind, applied.Epoch(), applied.Stats().LifecycleEpoch)
		}
		got, want := applied.Ledger().InstallSnapshot(), added.Ledger().InstallSnapshot()
		if !reflect.DeepEqual(got, want) || len(got) != len(names) {
			t.Errorf("%s: install records %+v, one at a time %+v", kind, got, want)
		}
	}

	dup, err := parse(t, "-catalog", "firewall-basic,nat-reverse,firewall-basic").LoadProperties()
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(sim.NewScheduler(), core.Config{})
	if _, err := federation.NewPropertySet(mon, dup, nil); err == nil || len(mon.Properties()) != 0 {
		t.Errorf("a startup set naming a property twice: %v, engine runs %v; want refused, nothing installed", err, mon.Properties())
	}
}

// TestReportText pins the exit report's bytes, which operators' scripts
// read: both daemons' summary line, switchmon's ledger (streamSeq) and
// the collector's.
func TestReportText(t *testing.T) {
	sched := sim.NewScheduler()
	mon := core.NewMonitor(sched, core.Config{})
	if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), "firewall-basic")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ReportLedger(&out, mon, mon.Stats(), true)
	if out.Len() != 0 {
		t.Errorf("sound engine printed a ledger: %q", out.String())
	}
	mon.MarkFeedLoss(sim.Epoch, 3, "lossy tap")
	st := mon.Stats()
	st.Events, st.Created, st.Violations = 36, 9, 3

	ReportSummary(&out, st)
	ReportLedger(&out, mon, st, true)
	ReportLedger(&out, mon, st, false)
	want := "\nevents=36 instances_created=9 advanced=0 discharged=0 expired=0 violations=3\n" +
		"degradation ledger: 1 property unsound (shed=0 quarantined=0)\n" +
		"  firewall-basic             injected-loss  since seq=0 (2016-11-09T00:00:00Z) lost=3 lossy tap\n" +
		"degradation ledger: 1 unsound\n" +
		"  firewall-basic             injected-loss  since 2016-11-09T00:00:00Z lost=3 lossy tap\n"
	if got := out.String(); got != want {
		t.Errorf("exit report text changed\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// mapTraceRecord is the conversion -json printed before bindings were
// rendered on read: a map of rendered values and a copied history. It is
// kept as the reference a -json line must match byte for byte.
func mapTraceRecord(v *core.Violation) obs.TraceRecord {
	rec := obs.TraceRecord{Time: v.Time, Property: v.Property, Trigger: v.Trigger}
	if len(v.Bindings) > 0 {
		rec.Bindings = make(map[string]string, len(v.Bindings))
		for _, b := range v.Bindings {
			rec.Bindings[b.Var] = b.Value.String()
		}
	}
	for _, h := range v.History {
		rec.History = append(rec.History, obs.TraceStep{Stage: h.Stage, Label: h.Label, Time: h.Time, Event: h.Event})
	}
	return rec
}

// A -json line is the bytes it was when the printer converted each
// report through a rendered map: numeric bindings, a DNS query name JSON
// must escape, and full histories.
func TestJSONLineMatchesMapRendering(t *testing.T) {
	var out, want bytes.Buffer
	cfg, err := parse(t, "-json", "-provenance", "full", "-metrics-addr", "127.0.0.1:0").EngineConfig(&out)
	if err != nil {
		t.Fatal(err)
	}
	printer, ref := cfg.OnViolation, json.NewEncoder(&want)
	cfg.OnViolation = func(v *core.Violation) {
		printer(v)
		if err := ref.Encode(mapTraceRecord(v)); err != nil {
			t.Fatal(err)
		}
	}
	sched := sim.NewScheduler()
	mon := core.NewMonitor(sched, cfg)
	for _, name := range []string{"firewall-basic", "dns-response-match"} {
		if err := mon.AddProperty(property.CatalogByName(property.DefaultParams(), name)); err != nil {
			t.Fatal(err)
		}
	}
	macA, macB := packet.MustMAC("02:00:00:00:00:0a"), packet.MustMAC("02:00:00:00:00:0b")
	ipA, ipB := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("203.0.113.9")
	var pid core.PacketID
	forward := func(p *packet.Packet, in, out uint64, dropped bool) {
		pid++
		mon.HandleEvent(core.Event{Kind: core.KindArrival, Time: sched.Now(), PacketID: pid, Packet: p, InPort: in})
		mon.HandleEvent(core.Event{Kind: core.KindEgress, Time: sched.Now(), PacketID: pid, Packet: p, InPort: in, OutPort: out, Dropped: dropped})
	}
	forward(packet.NewTCP(macA, macB, ipA, ipB, 40000, 80, packet.FlagSYN, nil), 1, 2, false)
	forward(packet.NewTCP(macB, macA, ipB, ipA, 80, 40000, packet.FlagACK, nil), 2, 0, true)
	forward(packet.NewDNSQuery(macA, macB, ipA, ipB, 5353, 42, "bank \"x\"\n<a>&b"), 1, 2, false)
	forward(packet.NewDNSResponse(macB, macA, ipB, ipA, 5353, 42, "evil.example", packet.MustIPv4("6.6.6.6")), 2, 1, false)
	if n := strings.Count(out.String(), "\n"); n != 2 {
		t.Fatalf("-json printed %d lines, want 2:\n%s", n, out.String())
	}
	if out.String() != want.String() {
		t.Errorf("-json lines:\n%s\nwant the map-rendered lines:\n%s", out.String(), want.String())
	}
}
