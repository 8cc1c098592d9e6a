package property

import (
	"fmt"
	"strings"
)

// Format renders a property in canonical DSL text. Parsing the output
// yields an equal AST (numeric literals are printed in decimal, so IP/MAC
// sugar used in hand-written sources is normalized away).
func Format(p *Property) string {
	var b strings.Builder
	fmt.Fprintf(&b, "property %q {\n", p.Name)
	if p.Description != "" {
		fmt.Fprintf(&b, "  description %q\n", p.Description)
	}
	for _, s := range p.Stages {
		b.WriteString("\n")
		formatStage(&b, s)
	}
	b.WriteString("}\n")
	return b.String()
}

// FormatAll renders multiple properties separated by blank lines.
func FormatAll(props []*Property) string {
	parts := make([]string, len(props))
	for i, p := range props {
		parts[i] = Format(p)
	}
	return strings.Join(parts, "\n")
}

func formatStage(b *strings.Builder, s Stage) {
	kw := "on"
	if s.Negative {
		kw = "unless"
	}
	fmt.Fprintf(b, "  %s %s %q", kw, s.Class, s.Label)
	if s.Window > 0 {
		fmt.Fprintf(b, " within %s", s.Window)
	}
	if s.WindowVar != "" {
		fmt.Fprintf(b, " within $%s", s.WindowVar)
	}
	if s.SamePacketAs >= 0 {
		fmt.Fprintf(b, " same packet as %d", s.SamePacketAs)
	}
	if s.MinCount > 0 {
		fmt.Fprintf(b, " count %d", s.MinCount)
		if s.CountDistinct != 0 {
			fmt.Fprintf(b, " distinct %s", s.CountDistinct)
		}
	}
	b.WriteString(" {\n")
	for _, pr := range s.Preds {
		fmt.Fprintf(b, "    match %s\n", pr)
	}
	if len(s.AnyOf) > 0 {
		groups := make([]string, len(s.AnyOf))
		for i, g := range s.AnyOf {
			groups[i] = formatGroup(g)
		}
		fmt.Fprintf(b, "    any %s\n", strings.Join(groups, " or "))
	}
	for _, bd := range s.Binds {
		fmt.Fprintf(b, "    bind $%s = %s\n", bd.Var, bd.Field)
	}
	for _, g := range s.Until {
		sticky := ""
		if g.Sticky {
			sticky = "sticky "
		}
		fmt.Fprintf(b, "    until %s%s %s\n", sticky, g.Class, formatGroup(g.Preds))
	}
	b.WriteString("  }\n")
}

func formatGroup(preds []Pred) string {
	parts := make([]string, len(preds))
	for i, pr := range preds {
		parts[i] = pr.String()
	}
	return "{ " + strings.Join(parts, "; ") + " }"
}
