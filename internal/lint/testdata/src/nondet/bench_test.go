package fl

import (
	"testing"
	"time"
)

// BenchmarkClock may read the wall clock: benchmarks are the one place
// measuring real time is the point.
func BenchmarkClock(b *testing.B) {
	start := time.Now()
	for i := 0; i < b.N; i++ {
		_ = time.Since(start) + time.Until(start)
	}
}

// TestClock is not a benchmark; the carve-out does not apply.
func TestClock(t *testing.T) {
	_ = time.Now() // want `time\.Now in a determinism-critical package`
}
