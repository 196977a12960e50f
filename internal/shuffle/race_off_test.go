//go:build !race

package shuffle

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
