package cosim_test

import (
	"sync/atomic"
	"testing"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/experiments"
	"github.com/harpnet/harp/internal/schedule"
)

// TestScheduleEquivalenceExperiments runs the co-simulated experiments —
// Fig. 10's two-step adjustment, the control-plane loss sweep and the
// 1000-node chaos storm — and holds every schedule the harness commits or
// samples against the full rebuild. (The committed chaos seed heals
// without an invalid sample; TestScheduleEquivalenceChaosMidHeal covers
// the invalid verdicts.)
func TestScheduleEquivalenceExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments")
	}
	var checks, invalid atomic.Int64
	defer cosim.SetScheduleObserver(func(f *agent.Fleet, s *schedule.Schedule, verdict error) {
		checks.Add(1)
		if verdict != nil {
			invalid.Add(1)
		}
		if err := f.CheckAgainstRebuild(s, verdict); err != nil {
			t.Error(err)
		}
	})()
	run := func(name string, fn func() error) {
		before, beforeInvalid := checks.Load(), invalid.Load()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, bad := checks.Load()-before, invalid.Load()-beforeInvalid
		t.Logf("%s: %d schedules checked, %d with an invalid verdict", name, n, bad)
		if n == 0 {
			t.Errorf("%s: no schedule reached the observer", name)
		}
	}
	run("fig10", func() error {
		_, err := experiments.Fig10(experiments.DefaultFig10())
		return err
	})
	run("losssweep", func() error {
		cfg := experiments.DefaultLossSweep()
		cfg.PDRs = []float64{1.0, 0.9}
		_, err := experiments.LossSweep(cfg)
		return err
	})
	run("chaos", func() error {
		_, err := experiments.ChaosExp(experiments.DefaultChaosExp())
		return err
	})
}
