//go:build !race

package raceon

// Enabled reports whether the binary was built with -race.
const Enabled = false
