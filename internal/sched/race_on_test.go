//go:build race

package sched

// raceEnabled gates allocation-count assertions, which hold for the
// plain build only.
const raceEnabled = true
