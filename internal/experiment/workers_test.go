package experiment

import (
	"runtime"
	"testing"
)

// TestWorkersParallelIdentical forces a real multi-goroutine build (the CI
// runner may expose a single CPU) and checks that genuinely concurrent world
// construction produces a Result byte-identical to the serial build. Run
// under -race this is also the data-race probe for every parallel build
// phase: per-node network construction and walker building, across both
// disjoint-state mobility (random waypoint) and the shared-reference model
// (group mobility).
func TestWorkersParallelIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := DefaultScenario()
	base.N = 80
	base.Duration = 8
	base.Pairs = 6

	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"alert-rwp", func(sc *Scenario) { sc.Protocol = ALERT }},
		{"gpsr-group", func(sc *Scenario) {
			sc.Protocol = GPSR
			sc.Mobility = GroupMobility
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.mut(&sc)
			serial, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			sc.Workers = 4
			parallel, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(serial) != resultDigest(parallel) {
				t.Fatalf("parallel build diverged from serial:\nserial:   %+v\nparallel: %+v",
					serial, parallel)
			}
		})
	}
}

// TestScenarioWorkersValidate: any non-negative degree is valid (there is
// no power-of-two rule); a negative one is rejected at validation time.
func TestScenarioWorkersValidate(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3, 4, 7, 64} {
		sc := DefaultScenario()
		sc.Workers = k
		if err := sc.Validate(); err != nil {
			t.Errorf("Workers=%d should validate: %v", k, err)
		}
	}
	for _, k := range []int{-1, -8} {
		sc := DefaultScenario()
		sc.Workers = k
		if err := sc.Validate(); err == nil {
			t.Errorf("Workers=%d should fail validation", k)
		}
	}
}

// TestScenarioWorkersHashNeutral: the build degree cannot change results,
// so no value of it may move the scenario hash — every golden digest,
// result store and campaign cache key is shared across degrees.
func TestScenarioWorkersHashNeutral(t *testing.T) {
	a := DefaultScenario()
	for _, k := range []int{1, 2, 3, 8, 1 << 20} {
		b := a
		b.Workers = k
		if a.Hash() != b.Hash() {
			t.Fatalf("Workers=%d moved the scenario hash", k)
		}
	}
}
