//go:build !race

package system

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
