//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped because instrumentation adds
// allocations of its own.
const raceEnabled = true
