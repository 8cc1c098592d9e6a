package property

import (
	"errors"
	"fmt"
)

// Validation errors.
var (
	ErrNoStages = errors.New("property: no observation stages")
)

// Validate checks the structural well-formedness of a property:
// variables are bound before use, negative stages carry the mandatory
// window and bind nothing (there is no event to bind from), packet-identity
// references point at earlier packet stages, and fields are registered.
func (p *Property) Validate() error {
	if p.Name == "" {
		return errors.New("property: empty name")
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("%w in %s", ErrNoStages, p.Name)
	}
	bound := map[Var]bool{}
	for i, s := range p.Stages {
		where := fmt.Sprintf("property %s stage %d (%s)", p.Name, i, s.Label)
		if err := validatePreds(s.Preds, bound, where); err != nil {
			return err
		}
		for gi, g := range s.AnyOf {
			if len(g) == 0 {
				return fmt.Errorf("%s: empty any-of group %d", where, gi)
			}
			if err := validatePreds(g, bound, fmt.Sprintf("%s any-of group %d", where, gi)); err != nil {
				return err
			}
		}
		for _, g := range s.Until {
			if err := validatePreds(g.Preds, bound, where+" until-guard"); err != nil {
				return err
			}
			if g.Sticky {
				if err := validateStickyGuard(p, i, g, bound, where); err != nil {
					return err
				}
			}
		}
		if s.Window < 0 {
			return fmt.Errorf("%s: negative window", where)
		}
		if s.WindowVar != "" {
			if s.Window != 0 {
				return fmt.Errorf("%s: both Window and WindowVar set", where)
			}
			if !bound[s.WindowVar] {
				return fmt.Errorf("%s: window variable $%s used before binding", where, s.WindowVar)
			}
		}
		if s.Negative {
			if s.Window <= 0 && s.WindowVar == "" {
				return fmt.Errorf("%s: negative observation without a window", where)
			}
			if len(s.Binds) > 0 {
				return fmt.Errorf("%s: negative observation cannot bind variables", where)
			}
			if i == 0 {
				return fmt.Errorf("%s: property cannot begin with a negative observation", where)
			}
		}
		if s.MinCount < 0 {
			return fmt.Errorf("%s: negative MinCount", where)
		}
		if s.MinCount > 1 && s.Negative {
			return fmt.Errorf("%s: negative observation cannot count", where)
		}
		if s.CountDistinct != 0 {
			if s.MinCount <= 1 {
				return fmt.Errorf("%s: CountDistinct requires MinCount > 1", where)
			}
			if !s.CountDistinct.Valid() {
				return fmt.Errorf("%s: CountDistinct on unregistered field %d", where, s.CountDistinct)
			}
		}
		if s.MinCount > 1 && len(s.Binds) > 0 {
			return fmt.Errorf("%s: counting stage cannot bind variables (which event would they come from?)", where)
		}
		if s.SamePacketAs >= 0 {
			if s.SamePacketAs >= i {
				return fmt.Errorf("%s: same-packet reference to stage %d is not earlier", where, s.SamePacketAs)
			}
			ref := p.Stages[s.SamePacketAs]
			if ref.Class == OutOfBand || ref.Negative {
				return fmt.Errorf("%s: same-packet reference to a non-packet stage", where)
			}
			if s.Class == OutOfBand {
				return fmt.Errorf("%s: same-packet constraint on an out-of-band stage", where)
			}
		}
		for _, b := range s.Binds {
			if !b.Field.Valid() {
				return fmt.Errorf("%s: binding from unregistered field %d", where, b.Field)
			}
			if b.Var == "" {
				return fmt.Errorf("%s: binding to empty variable name", where)
			}
			bound[b.Var] = true
		}
	}
	return nil
}

// validateStickyGuard enforces the synthesizability requirements of
// sticky (permanent) guards: every variable bound so far must be pinned
// by an equality predicate of the guard, and no earlier stage may use
// packet identity (which cannot be synthesized from the guard's event).
func validateStickyGuard(p *Property, stageIdx int, g Guard, bound map[Var]bool, where string) error {
	pinned := map[Var]bool{}
	for _, pr := range g.Preds {
		if pr.Op == OpEq && pr.Arg.IsVar() {
			pinned[pr.Arg.Var] = true
		}
	}
	for v := range bound {
		if !pinned[v] {
			return fmt.Errorf("%s: sticky guard does not pin variable $%s", where, v)
		}
	}
	for i := 0; i < stageIdx; i++ {
		for j := range p.Stages {
			if p.Stages[j].SamePacketAs == i {
				return fmt.Errorf("%s: sticky guard with packet identity on stage %d", where, i)
			}
		}
	}
	return nil
}

func validatePreds(preds []Pred, bound map[Var]bool, where string) error {
	for _, pr := range preds {
		if !pr.Field.Valid() {
			return fmt.Errorf("%s: predicate on unregistered field %d", where, pr.Field)
		}
		switch pr.Arg.Kind {
		case OperandVar:
			if !bound[pr.Arg.Var] {
				return fmt.Errorf("%s: variable $%s used before binding", where, pr.Arg.Var)
			}
		case OperandHash:
			h := pr.Arg.Hash
			if h == nil || len(h.Fields) == 0 {
				return fmt.Errorf("%s: hash operand without fields", where)
			}
			if h.Mod == 0 {
				return fmt.Errorf("%s: hash operand with zero modulus", where)
			}
			for _, f := range h.Fields {
				if !f.Valid() {
					return fmt.Errorf("%s: hash over unregistered field %d", where, f)
				}
			}
		}
	}
	return nil
}
