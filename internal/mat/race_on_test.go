//go:build race

package mat

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately drops a fraction of sync.Pool puts to
// widen interleaving coverage — making steady-state allocation
// assertions meaningless.
const raceEnabled = true
