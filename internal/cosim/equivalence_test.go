package cosim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// TestSkipEquivalenceAdjustScenario pins the co-simulation contract of the
// event-driven stepper: with the protocol side demanding slots only while an
// adjustment is in flight, the skipping MAC must reproduce the serial run
// exactly — same commits, same packet records, same counters — while
// executing strictly fewer slots.
func TestSkipEquivalenceAdjustScenario(t *testing.T) {
	run := func(serial bool) *CoSim {
		prev := sim.SetSerialSteppingDefault(serial)
		defer sim.SetSerialSteppingDefault(prev)
		return runAdjustScenario(t, 9)
	}
	ser := run(true)
	skip := run(false)
	if got, want := skip.Sim.ExecutedSlots(), ser.Sim.ExecutedSlots(); got >= want {
		t.Errorf("skipping stepper executed %d slots, serial %d — no slots were skipped", got, want)
	}
	if !reflect.DeepEqual(ser.Commits, skip.Commits) {
		t.Errorf("commits diverge:\nserial: %+v\nskip:   %+v", ser.Commits, skip.Commits)
	}
	if !reflect.DeepEqual(ser.Sim.Records(), skip.Sim.Records()) {
		t.Errorf("packet records diverge between serial and skipping co-simulation")
	}
	if !ser.Quiesced() || !skip.Quiesced() {
		t.Errorf("runs did not quiesce: serial %v, skip %v", ser.Quiesced(), skip.Quiesced())
	}
}

// TestShardEquivalenceAdjustScenario pins the sharded virtual-time
// kernel's contract: a co-simulation on N per-subtree event heaps replays
// the single-heap run exactly — same commits, same packet records, same
// executed slots, same delivery counts — because the kernel always pops
// the global (time, seq) minimum across shard heads.
func TestShardEquivalenceAdjustScenario(t *testing.T) {
	serial := runAdjustScenarioShards(t, 9, 0)
	for _, shards := range []int{2, AutoShards(topology.Fig1()), 7} {
		sharded := runAdjustScenarioShards(t, 9, shards)
		if !reflect.DeepEqual(serial.Commits, sharded.Commits) {
			t.Errorf("shards=%d: commits diverge:\nserial:  %+v\nsharded: %+v", shards, serial.Commits, sharded.Commits)
		}
		if !reflect.DeepEqual(serial.Sim.Records(), sharded.Sim.Records()) {
			t.Errorf("shards=%d: packet records diverge from the single-heap run", shards)
		}
		if got, want := sharded.Sim.ExecutedSlots(), serial.Sim.ExecutedSlots(); got != want {
			t.Errorf("shards=%d: executed %d slots, single-heap run executed %d", shards, got, want)
		}
		if got, want := sharded.Bus.Delivered(), serial.Bus.Delivered(); got != want {
			t.Errorf("shards=%d: delivered %d messages, single-heap run delivered %d", shards, got, want)
		}
		if !sharded.Quiesced() {
			t.Errorf("shards=%d: run did not quiesce", shards)
		}
	}
}

// TestScheduleEquivalenceAdjustSequence10k runs a 10k-node fleet through
// rounds of mixed raises and lowerings and holds the persistent schedule
// against the full rebuild at every commit: same (link, cell) pairs, same
// verdict.
func TestScheduleEquivalenceAdjustSequence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node co-simulation")
	}
	rng := rand.New(rand.NewSource(3))
	tree, err := topology.GenerateScale(topology.GenSpec{Nodes: 10_000, Layers: 8, MaxChildren: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Nodes()
	tasks := traffic.NewSet()
	var sources []topology.NodeID
	for id := traffic.TaskID(0); len(sources) < 16; id++ {
		src := nodes[1+rng.Intn(len(nodes)-1)]
		if tasks.Add(traffic.Task{ID: id, Source: src, Actuator: src, Rate: 1}) == nil {
			sources = append(sources, src)
		}
	}
	frame := schedule.Slotframe{Slots: 997, Channels: 16, DataSlots: 960, SlotDuration: 10 * time.Millisecond}
	checks := 0
	defer SetScheduleObserver(func(f *agent.Fleet, s *schedule.Schedule, verdict error) {
		checks++
		if err := f.CheckAgainstRebuild(s, verdict); err != nil {
			t.Error(err)
		}
	})()
	cs, err := New(Config{Tree: tree, Frame: frame, Tasks: tasks, PDR: 1, Seed: 3, RootGap: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	for r := 0; r < rounds; r++ {
		err := cs.Adjust(func(f *agent.Fleet) error {
			for j := 0; j < 3; j++ {
				l := topology.Link{Child: sources[rng.Intn(len(sources))], Direction: topology.Direction(rng.Intn(2))}
				if err := f.RequestLinkDemand(l, rng.Intn(5)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 200 && !cs.Quiesced(); k++ {
			if err := cs.RunSlotframes(1); err != nil {
				t.Fatal(err)
			}
		}
		if !cs.Quiesced() {
			t.Fatalf("round %d did not commit", r)
		}
	}
	if len(cs.Commits) != rounds || checks != rounds+1 {
		t.Fatalf("%d commits and %d checks, want %d and %d", len(cs.Commits), checks, rounds, rounds+1)
	}
}

// TestScheduleEquivalenceChaosMidHeal samples the testbed crash storm at
// every slotframe boundary; while the heal is in flight the fleet's
// schedule fails validation, and the persistent schedule's verdict must
// still match the full rebuild's, sample by sample.
func TestScheduleEquivalenceChaosMidHeal(t *testing.T) {
	checks, invalid := 0, 0
	defer SetScheduleObserver(func(f *agent.Fleet, s *schedule.Schedule, verdict error) {
		checks++
		if verdict != nil {
			invalid++
		}
		if err := f.CheckAgainstRebuild(s, verdict); err != nil {
			t.Error(err)
		}
	})()
	chaosScenario(t, 0)
	if invalid == 0 {
		t.Fatalf("none of %d samples saw an invalid schedule mid-heal", checks)
	}
	t.Logf("%d schedules checked, %d with an invalid verdict", checks, invalid)
}
