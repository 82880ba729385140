//go:build race

package system

// raceEnabled reports whether the race detector instruments this build;
// allocation gates skip under it (instrumentation allocates).
const raceEnabled = true
