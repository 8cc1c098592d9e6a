package property

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// The shipped catalogue is canonical text: each property parses, has a
// group, and formats to a fixed point, and the file less its comments is
// FormatAll of what it defines. The group table names exactly the file's
// properties.
func TestCatalogueCanonical(t *testing.T) {
	props, err := ParseAll(catalogSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range props {
		if catalogGroups[p.Name] == "" {
			t.Errorf("property %s has no group", p.Name)
		}
		text := Format(p)
		back, err := Parse(text)
		if err != nil {
			t.Errorf("%s: reparse failed: %v", p.Name, err)
			continue
		}
		if !reflect.DeepEqual(p, back) || Format(back) != text {
			t.Errorf("%s: formatting is not a fixed point", p.Name)
		}
	}
	for name := range catalogGroups {
		if !slices.ContainsFunc(props, func(p *Property) bool { return p.Name == name }) {
			t.Errorf("group table names %s, which the catalogue does not define", name)
		}
	}
	var body []string
	for _, line := range strings.SplitAfter(catalogSource, "\n") {
		if !strings.HasPrefix(line, "#") {
			body = append(body, line)
		}
	}
	if got := strings.TrimLeft(strings.Join(body, ""), "\n"); got != FormatAll(props) {
		t.Error("catalog.properties is not in canonical form; rewrite it with FormatAll, keeping the comments")
	}
}

// Params pin: each window parameter moves exactly the stages the file
// writes with its default, and nothing else.
func TestCatalogParams(t *testing.T) {
	def := Catalog(DefaultParams())
	cases := []struct {
		pm     Params
		window time.Duration
		stages []string
	}{
		{Params{FirewallWindow: 7 * time.Second, ReplyWindow: 2 * time.Second}, 7 * time.Second,
			[]string{"firewall-timeout/return-dropped", "firewall-until-close/return-dropped"}},
		{Params{FirewallWindow: time.Minute, ReplyWindow: 750 * time.Millisecond}, 750 * time.Millisecond,
			[]string{"arp-proxy-reply/no-reply", "arp-unknown-forwarded/not-forwarded",
				"dhcp-reply-within/no-reply", "dhcparp-preload/no-reply", "ping-reply-within/no-reply"}},
	}
	for _, c := range cases {
		var moved []string
		for i, e := range Catalog(c.pm) {
			for j, s := range e.Prop.Stages {
				if !reflect.DeepEqual(s, def[i].Prop.Stages[j]) {
					moved = append(moved, e.Prop.Name+"/"+s.Label)
					if s.Window != c.window {
						t.Errorf("%+v: %s/%s window %v, want %v", c.pm, e.Prop.Name, s.Label, s.Window, c.window)
					}
					s.Window = def[i].Prop.Stages[j].Window
				}
				if !reflect.DeepEqual(s, def[i].Prop.Stages[j]) {
					t.Errorf("%+v: %s/%s changed beyond its window", c.pm, e.Prop.Name, s.Label)
				}
			}
		}
		if !reflect.DeepEqual(moved, c.stages) {
			t.Errorf("%+v moved %v, want %v", c.pm, moved, c.stages)
		}
	}
}
