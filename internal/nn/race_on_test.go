//go:build race

package nn

// raceEnabled gates allocation-count assertions: under the race detector
// sync.Pool drops items at random, so pooled buffers re-allocate.
const raceEnabled = true
