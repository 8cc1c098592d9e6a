//go:build race

// Package raceon tells tests whether the race detector is compiled in.
// The detector allocates on paths that are otherwise allocation-free
// (sync.Pool is bypassed, channel and atomic operations are shadowed),
// so the allocation gates skip themselves under -race instead of
// failing for a reason that is not theirs.
package raceon

// Enabled reports whether the binary was built with -race.
const Enabled = true
