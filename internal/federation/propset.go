package federation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"switchmon/internal/core"
	"switchmon/internal/obs/export"
	"switchmon/internal/property"
	"switchmon/internal/wire"
)

// PropertySetDoc is the fleet's one epoch-stamped document: its property
// set, in the fields of the config a collector pushes (Config), and its
// membership, in those of the fleet config (fleetConfig). It is what the
// aggregation tier owns and edits, and what a member applies (PUT
// /fleet/properties) and reports (GET). Props are sorted by name and
// Source is their property.FormatAll, so documents holding one set are equal.
// Epoch 0 is a daemon's startup set; every edit, of the set or of the
// members, moves the epoch on by one. Members is empty until the first
// membership edit.
type PropertySetDoc struct {
	Epoch   uint64          `json:"epoch"`
	Props   []wire.PropMeta `json:"props"`
	Source  string          `json:"source"`
	Members []AggMember     `json:"members,omitempty"`
}

// setDoc renders props as the document at epoch naming members.
func setDoc(epoch uint64, props []*property.Property, members []AggMember) PropertySetDoc {
	slices.SortFunc(props, func(a, b *property.Property) int { return strings.Compare(a.Name, b.Name) })
	d := PropertySetDoc{Epoch: epoch, Props: []wire.PropMeta{}, Source: property.FormatAll(props), Members: members}
	for _, p := range props {
		d.Props = append(d.Props, wire.PropMeta{Name: p.Name, Tenant: p.Tenant})
	}
	return d
}

// parse compiles d, whose source must define the properties it names, in
// order, each once.
func (d PropertySetDoc) parse() ([]*property.Property, error) {
	props, err := property.ParseAll(d.Source)
	if err == nil && len(props) != len(d.Props) {
		err = fmt.Errorf("the source defines %d properties, the document names %d", len(props), len(d.Props))
	}
	for i := 0; err == nil && i < len(props); i++ {
		p := props[i]
		if p.Name != d.Props[i].Name || named(props[:i], p.Name) {
			err = fmt.Errorf("the document names %q where the source defines %q", d.Props[i].Name, p.Name)
		}
		p.Tenant = d.Props[i].Tenant
	}
	return props, err
}

func named(props []*property.Property, name string) bool {
	return slices.ContainsFunc(props, func(p *property.Property) bool { return p.Name == name })
}

// Install returns d with the properties src defines added under tenant,
// one epoch on. Source that does not parse or defines nothing and a name
// d already holds are refused; whether an engine takes the set is its
// Apply's to say (core.CheckSet, for a tier without one).
func (d PropertySetDoc) Install(src, tenant string) (PropertySetDoc, error) {
	have, err := d.parse()
	if err != nil {
		return d, err
	}
	add, err := property.ParseAll(src)
	if err == nil && len(add) == 0 {
		err = fmt.Errorf("no properties in body")
	}
	for _, p := range add {
		if named(have, p.Name) {
			err = fmt.Errorf("property %q already installed", p.Name)
		}
		p.Tenant, have = tenant, append(have, p)
	}
	if err != nil {
		return d, err
	}
	return setDoc(d.Epoch+1, have, d.Members), nil
}

// fits reports whether a collector's engine takes d's set whole
// (core.CheckSet): the check of a tier that edits the document without
// running it.
func (d PropertySetDoc) fits() error {
	props, err := d.parse()
	if err == nil {
		err = core.CheckSet(props)
	}
	return err
}

// Remove returns d without the named property, one epoch on; a name d
// does not hold is refused.
func (d PropertySetDoc) Remove(name string) (PropertySetDoc, error) {
	have, err := d.parse()
	i := slices.IndexFunc(have, func(p *property.Property) bool { return p.Name == name })
	if err == nil && i < 0 {
		err = fmt.Errorf("property %q not installed", name)
	}
	if err != nil {
		return d, err
	}
	return setDoc(d.Epoch+1, slices.Delete(have, i, i+1), d.Members), nil
}

// same reports whether d and o hold one set and one membership, whatever
// their epochs.
func (d PropertySetDoc) same(o PropertySetDoc) bool {
	return slices.Equal(d.Props, o.Props) && d.Source == o.Source && slices.Equal(d.Members, o.Members)
}

// Config renders d as the config a collector pushes to its exporters.
func (d PropertySetDoc) Config() *wire.Config {
	return &wire.Config{Kind: wire.ConfigProperties, Epoch: d.Epoch, Props: d.Props, Source: d.Source}
}

// fleetConfig renders d's members as the fleet config a collector pushes
// to its exporters. The wire carries weights as fixed-point millis, so
// fractional capacities survive the trip: 0 stays the default weight 1.0,
// and any positive weight rounds to at least one milli-unit.
func (d PropertySetDoc) fleetConfig() *wire.Config {
	fc := &wire.Config{Kind: wire.ConfigFleet, Epoch: d.Epoch}
	for _, m := range d.Members {
		w := uint64(math.Round(m.Weight * 1000))
		if m.Weight > 0 && w == 0 {
			w = 1
		}
		fc.Members = append(fc.Members, wire.FleetMember{Addr: m.Addr, Weight: w})
	}
	return fc
}

// PropertySet is an engine's installed set kept as one PropertySetDoc,
// every change of which is pushed (a collector's, to its exporters: the
// set on every apply, the fleet config when the members move) and which
// is changed three ways: edited by the daemon's own /properties
// (Edits), replaced by the aggregation tier's document (Apply, a member's
// PUT /fleet/properties), and made the set a switch's collectors push
// (ApplyConfig). Its epoch is the last document applied; the startup set
// has none, so any first document replaces it.
type PropertySet struct {
	eng  core.Engine
	push func(*wire.Config) error

	mu  sync.Mutex // serializes edits and applies
	hw  wire.HighWater
	doc PropertySetDoc // the set the engine runs: the last applied
}

// NewPropertySet applies props, the startup set (-catalog, -props), to
// eng, an engine with none installed yet, as one Apply at epoch 0 (no
// push), and keeps the set from then on; push, when non-nil, receives
// the set as a config after every later applied change
// (collector.Broadcast). A startup set eng refuses is returned as the
// error.
func NewPropertySet(eng core.Engine, props []*property.Property, push func(*wire.Config) error) (*PropertySet, error) {
	if err := eng.Apply(0, props); err != nil {
		return nil, err
	}
	return &PropertySet{eng: eng, push: push, doc: setDoc(0, slices.Clone(props), nil)}, nil
}

// Publish pushes the set as it stands: a collector's startup set, once
// exporters can connect.
func (s *PropertySet) Publish() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.push == nil {
		return nil
	}
	return s.push(s.doc.Config())
}

// Doc answers the applied set.
func (s *PropertySet) Doc() PropertySetDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doc
}

// Apply makes d the engine's set unless d is stale — not newer than the
// last document applied (wire.HighWater), a no-op — and answers the set
// then applied.
func (s *PropertySet) Apply(d PropertySetDoc) (PropertySetDoc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hw.Newer(d.Epoch) {
		return s.doc, nil
	}
	return s.converge(d)
}

// ApplyConfig makes a set a switch's collectors pushed the engine's,
// whatever its epoch: the Router's high water has already dropped the
// stale copies.
func (s *PropertySet) ApplyConfig(u *wire.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.converge(PropertySetDoc{Epoch: u.Epoch, Props: u.Props, Source: u.Source})
	return err
}

// Edits is the daemon's own /properties over the set: GET lists the
// applied document; install and remove edit it one epoch on (the
// document's Install and Remove), apply it and answer it.
func (s *PropertySet) Edits() *export.PropertiesConfig {
	edit := func(change func(PropertySetDoc) (PropertySetDoc, error)) (any, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		d, err := change(s.doc)
		if err != nil {
			return nil, err
		}
		return s.converge(d)
	}
	return &export.PropertiesConfig{
		List: func() any { return s.Doc() },
		Install: func(src, tenant string) (any, error) {
			return edit(func(d PropertySetDoc) (PropertySetDoc, error) { return d.Install(src, tenant) })
		},
		Remove: func(name string) (any, error) {
			return edit(func(d PropertySetDoc) (PropertySetDoc, error) { return d.Remove(name) })
		},
	}
}

// converge makes d the applied set: the engine's one Apply at d's epoch,
// which keeps running what d holds alike and refuses a set it does not
// take whole. d's members are checked (ValidateMembers) first, so a
// document an engine or a router refuses changes nothing and pushes
// nothing. Members that differ from the applied ones are pushed after the
// set, as the fleet config at d's epoch.
func (s *PropertySet) converge(d PropertySetDoc) (PropertySetDoc, error) {
	props, err := d.parse()
	if err == nil && len(d.Members) > 0 {
		err = ValidateMembers(d.Members)
	}
	if err == nil {
		err = s.eng.Apply(d.Epoch, props)
	}
	if err != nil {
		return s.doc, err
	}
	// Recorded whatever the apply's staleness rule: Apply's high water
	// admitted d, or the Router's did.
	moved := len(d.Members) > 0 && !slices.Equal(d.Members, s.doc.Members)
	s.hw = wire.HighWater{Epoch: d.Epoch, Count: s.hw.Count + 1}
	s.doc = setDoc(d.Epoch, props, d.Members)
	if s.push == nil {
		return s.doc, nil
	}
	err = s.push(s.doc.Config())
	if moved {
		err = errors.Join(err, s.push(s.doc.fleetConfig()))
	}
	return s.doc, err
}
