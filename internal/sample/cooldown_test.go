package sample

import (
	"reflect"
	"testing"
)

func cooldownFixture() *Cooldown {
	return NewCooldown(NewUniform(100, 100, 1), 1)
}

func TestCooldownImplementsInterfaces(t *testing.T) {
	var s Sampler = cooldownFixture()
	if _, ok := s.(FailureReporter); !ok {
		t.Fatal("Cooldown does not implement FailureReporter")
	}
	if s.Name() != "uniform+cooldown" {
		t.Fatalf("Name() = %q", s.Name())
	}
	if s.Population() != 100 || s.CohortSize() != 100 {
		t.Fatalf("Population/CohortSize = %d/%d", s.Population(), s.CohortSize())
	}
}

func TestCooldownSkipsFailedClient(t *testing.T) {
	c := cooldownFixture()
	c.ReportFailure(7, 0) // first failure: skip round 1, back at round 2
	sel := c.Cohort(1, nil)
	for _, id := range sel {
		if id == 7 {
			t.Fatal("client 7 selected during cooldown")
		}
	}
	if len(sel) != 99 {
		t.Fatalf("cohort size %d, want 99", len(sel))
	}
	found := false
	for _, id := range c.Cohort(2, nil) {
		if id == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("client 7 still filtered after cooldown expiry")
	}
}

func TestCooldownExponentialBackoff(t *testing.T) {
	c := cooldownFixture()
	// Consecutive failures double the cooldown: 1, 2, 4, … rounds.
	c.ReportFailure(3, 0)
	if !c.OnCooldown(3, 1) || c.OnCooldown(3, 2) {
		t.Fatal("first failure should cool down exactly round 1")
	}
	c.ReportFailure(3, 2)
	if !c.OnCooldown(3, 4) || c.OnCooldown(3, 5) {
		t.Fatal("second failure should cool down rounds 3-4")
	}
	c.ReportFailure(3, 5)
	if !c.OnCooldown(3, 9) || c.OnCooldown(3, 10) {
		t.Fatal("third failure should cool down rounds 6-9")
	}
}

func TestCooldownCapped(t *testing.T) {
	c := cooldownFixture()
	for r := 0; r < 50; r++ {
		c.ReportFailure(1, r)
	}
	// The last failure, at round 49, benches rounds 50–81.
	if !c.OnCooldown(1, 81) {
		t.Fatal("should still be cooling down at round 81")
	}
	if c.OnCooldown(1, 82) {
		t.Fatal("cooldown exceeded the 32-round cap")
	}
}

// TestCooldownHugeBaseCapped: a base beyond the cap is the cap, at any
// strike count — doubling it first would wrap to a negative cooldown
// and put the client straight back in the cohort.
func TestCooldownHugeBaseCapped(t *testing.T) {
	c := NewCooldown(NewUniform(100, 100, 1), 1<<62)
	c.ReportFailure(7, 0)
	c.ReportFailure(7, 5)
	if snap := c.Snapshot(); len(snap) != 1 || snap[0].Until != 38 {
		t.Fatalf("Snapshot() = %+v, want client 7 benched until round 38", snap)
	}
	for _, id := range c.Cohort(7, nil) {
		if id == 7 {
			t.Fatal("client 7 selected at round 7, inside its 32-round cooldown")
		}
	}
}

func TestCooldownSuccessResets(t *testing.T) {
	c := cooldownFixture()
	c.ReportFailure(5, 0)
	c.ReportFailure(5, 2)
	c.ReportSuccess(5)
	if c.OnCooldown(5, 3) {
		t.Fatal("success did not clear the backoff record")
	}
	// The strike count restarts too.
	c.ReportFailure(5, 10)
	if c.OnCooldown(5, 12) {
		t.Fatal("strikes were not reset by the success")
	}
}

func TestCooldownSnapshotRestore(t *testing.T) {
	c := cooldownFixture()
	c.ReportFailure(9, 0)
	c.ReportFailure(2, 0)
	c.ReportFailure(2, 2)
	snap := c.Snapshot()
	want := []CooldownEntry{{Client: 2, Strikes: 2, Until: 5}, {Client: 9, Strikes: 1, Until: 2}}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %+v, want %+v", snap, want)
	}

	d := cooldownFixture()
	d.Restore(snap)
	for round := 0; round < 8; round++ {
		a := c.Cohort(round, nil)
		b := d.Cohort(round, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: restored cohort differs", round)
		}
	}
	if snap2 := d.Snapshot(); !reflect.DeepEqual(snap2, snap) {
		t.Fatalf("re-snapshot %+v, want %+v", snap2, snap)
	}
	if c.Snapshot() == nil {
		t.Fatal("non-empty state snapshotted to nil")
	}
	if cooldownFixture().Snapshot() != nil {
		t.Fatal("empty state should snapshot to nil")
	}
}

func TestCooldownDeterministicAndSorted(t *testing.T) {
	a, b := cooldownFixture(), cooldownFixture()
	for _, c := range []*Cooldown{a, b} {
		c.ReportFailure(10, 0)
		c.ReportFailure(20, 0)
		c.ReportFailure(20, 2)
	}
	for round := 0; round < 6; round++ {
		sa, sb := a.Cohort(round, nil), b.Cohort(round, nil)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("round %d: cohorts differ", round)
		}
		for i := 1; i < len(sa); i++ {
			if sa[i] <= sa[i-1] {
				t.Fatalf("round %d: cohort not strictly ascending at %d", round, i)
			}
		}
	}
}

func TestCooldownCohortAllocFree(t *testing.T) {
	c := cooldownFixture()
	c.ReportFailure(7, 0)
	dst := make([]int, c.CohortSize())
	if allocs := testing.AllocsPerRun(50, func() {
		dst = c.Cohort(1, dst)
	}); allocs != 0 {
		t.Fatalf("Cohort allocates %v per call", allocs)
	}
}
