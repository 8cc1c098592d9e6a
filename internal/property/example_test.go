package property_test

import (
	"fmt"

	"switchmon/internal/property"
)

// ExampleParse compiles a property from its text form and prints its
// derived structure.
func ExampleParse() {
	src := `
property "knock-gate" {
  description "intervening guesses invalidate the sequence"
  on arrival "knock1" {
    match l4.dst_port == 7001
    bind $H = ip.src
  }
  on arrival "wrong-guess" {
    match ip.src == $H
    match l4.dst_port != 7002
  }
}
`
	p, err := property.Parse(src)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Name, "-", len(p.Stages), "observations")
	fmt.Println(p.Stages[1].Preds[1])
	// Output:
	// knock-gate - 2 observations
	// l4.dst_port != 7002
}

// ExampleFormat renders a parsed property back to canonical text.
func ExampleFormat() {
	p, err := property.Parse(`property "tiny" { on arrival "a" { match ip.proto == 6 } }`)
	if err != nil {
		panic(err)
	}
	fmt.Print(property.Format(p))
	// Output:
	// property "tiny" {
	//
	//   on arrival "a" {
	//     match ip.proto == 6
	//   }
	// }
}
