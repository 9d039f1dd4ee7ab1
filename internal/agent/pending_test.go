package agent_test

import (
	"testing"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// TestPendingCountMatchesScanUnderChaos drives a crash storm with
// readmissions and watchdog aborts over the 50-node testbed and checks, at
// every slotframe boundary, that the fleet's running pending count equals
// a scan of every agent's escalation stamps. The stamps are set, cleared
// by grants, unwound by give-ups and aborts, and wiped by resets; a missed
// update on any of those paths shows up as drift here.
func TestPendingCountMatchesScanUnderChaos(t *testing.T) {
	frame := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cosim.New(cosim.Config{Tree: tree, Frame: frame, Tasks: tasks, PDR: 1, Seed: 7, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	sf := float64(frame.Slots)
	det, err := cs.EnableSelfHealing(agent.DetectorConfig{
		Interval:     sf,
		SuspectAfter: 2 * sf,
		DeadAfter:    4 * sf,
		AbortAfter:   3 * sf,
		Seed:         7,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cosim.NewChaos(cs, det, cosim.ChaosConfig{
		Seed:              7,
		CrashFraction:     0.15,
		PermanentFraction: 0.5,
		StartSlot:         frame.Slots,
		SpreadSlots:       2 * frame.Slots,
		DowntimeSlots:     7 * frame.Slots,
		LinkFlaps:         3,
		FlapSlots:         frame.Slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	const storm, drain = 25, 70
	busy := 0
	start := cs.Sim.Now()
	for k := 0; k <= storm+drain; k++ {
		cs.At(start+k*frame.Slots, func(cs *cosim.CoSim) {
			count, scan := cs.Fleet.PendingAdjustments(), cs.Fleet.PendingScan()
			if count != scan {
				t.Errorf("slot %d: running pending count %d, scan %d", cs.Sim.Now(), count, scan)
			}
			if count > 0 {
				busy++
			}
		})
	}
	if err := ch.Run(storm); err != nil {
		t.Fatal(err)
	}
	if err := cs.Adjust(func(*agent.Fleet) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := cs.RunSlotframes(drain); err != nil {
		t.Fatal(err)
	}
	rep := ch.Report()
	if rep.Readmissions == 0 || rep.Aborts == 0 || busy == 0 {
		t.Fatalf("storm too quiet to exercise the count: readmissions=%d aborts=%d windows with pending=%d",
			rep.Readmissions, rep.Aborts, busy)
	}
	t.Logf("readmissions=%d aborts=%d windows with pending adjustments=%d", rep.Readmissions, rep.Aborts, busy)
}
