package sim

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// simCounters snapshots every public accounting counter so two runs can be
// compared with a single struct equality.
type simCounters struct {
	Drops            int
	Collisions       int
	HalfDuplexBlocks int
	ReceiverMisses   int
	LossFailures     int
	Expired          int
	SwapDrops        int
	Unroutable       int
}

func snapshotCounters(s *Simulator) simCounters {
	return simCounters{
		Drops:            s.Drops,
		Collisions:       s.Collisions,
		HalfDuplexBlocks: s.HalfDuplexBlocks,
		ReceiverMisses:   s.ReceiverMisses,
		LossFailures:     s.LossFailures,
		Expired:          s.Expired,
		SwapDrops:        s.SwapDrops,
		Unroutable:       s.Unroutable,
	}
}

// requireEquivalent runs a scenario in both stepping modes and requires
// byte-identical packet records and counters, with the skipping stepper
// provably executing fewer slots (otherwise the test degenerates into
// comparing a run against itself).
func requireEquivalent(t *testing.T, run func(t *testing.T, serial bool) *Simulator) {
	t.Helper()
	serial := run(t, true)
	skip := run(t, false)
	if got, want := skip.ExecutedSlots(), serial.ExecutedSlots(); got >= want {
		t.Errorf("skipping stepper executed %d slots, serial %d — no slots were skipped", got, want)
	}
	if !reflect.DeepEqual(serial.Records(), skip.Records()) {
		t.Errorf("packet records diverge between serial and skipping stepping:\nserial: %+v\nskip:   %+v",
			serial.Records(), skip.Records())
	}
	if cs, ck := snapshotCounters(serial), snapshotCounters(skip); cs != ck {
		t.Errorf("counters diverge: serial %+v, skip %+v", cs, ck)
	}
	if serial.Now() != skip.Now() || serial.PendingPackets() != skip.PendingPackets() {
		t.Errorf("end state diverges: serial (now=%d pending=%d), skip (now=%d pending=%d)",
			serial.Now(), serial.PendingPackets(), skip.Now(), skip.PendingPackets())
	}
}

// TestSkipEquivalenceChainLossy drives the 3-node chain through the event
// surface that interacts with skipping: a lossy channel with bounded retries,
// a rate change and a schedule swap injected through At, and Run chunks that
// end at odd offsets inside the slotframe.
func TestSkipEquivalenceChainLossy(t *testing.T) {
	requireEquivalent(t, func(t *testing.T, serial bool) *Simulator {
		tree, tasks := chainNet(t, 1.3)
		f := frame()
		s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 0.8, MaxRetries: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSerialStepping(serial)
		s.SetSchedule(harpSchedule(t, tree, tasks, f))
		// The swap target comes from an independent build at the post-change
		// rate, as the adjustment pipeline would produce.
		tree2, tasks2 := chainNet(t, 2.6)
		swap := harpSchedule(t, tree2, tasks2, f)
		s.At(97, func(sm *Simulator) {
			if err := sm.SetTaskRate(2, 2.6); err != nil {
				t.Fatal(err)
			}
		})
		s.At(201, func(sm *Simulator) { sm.SetSchedule(swap) })
		for _, n := range []int{37, 1, 250, 512} {
			if err := s.Run(n); err != nil {
				t.Fatal(err)
			}
		}
		return s
	})
}

// TestSkipEquivalenceTestbedIdle covers the idle-heavy regime the skipping
// stepper exists for: the 50-node testbed at a low rate, where most slots
// carry no traffic and the activity index does the work.
func TestSkipEquivalenceTestbedIdle(t *testing.T) {
	requireEquivalent(t, func(t *testing.T, serial bool) *Simulator {
		tree := topology.Testbed50()
		tasks, err := traffic.UniformEcho(tree, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		f := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
		s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 0.97, MaxRetries: 3, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSerialStepping(serial)
		s.SetSchedule(harpSchedule(t, tree, tasks, f))
		if err := s.RunSlotframes(6); err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestIdleSkipRunDoesNotAllocate pins the hot property the event-driven
// stepper's speedup rests on: once traffic has drained, advancing across idle
// gaps costs zero heap allocations per Run call.
func TestIdleSkipRunDoesNotAllocate(t *testing.T) {
	tree, tasks := chainNet(t, 0.002) // one release, then ~20000 idle slots
	f := frame()
	s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := s.Run(10 * f.Slots); err != nil { // absorb the initial release
		t.Fatal(err)
	}
	if got := s.PendingPackets(); got != 0 {
		t.Fatalf("PendingPackets = %d after drain window, want 0", got)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle-skip Run allocated %.1f times per call, want 0", allocs)
	}
}

// TestPatchMatchesFullInstall runs twin simulators on one tree and task set
// through a seeded sequence of schedule changes kept in a schedule.Ledger:
// one twin is patched from the ledger's link delta (PatchSchedule), the
// other re-installs the whole schedule (SetSchedule). The changes raise and
// lower a link's cells, take every cell from a link with queued packets,
// schedule a link that has no queue yet, give cells back to a link whose
// queue filled while it was unserved, and move a child to a new parent.
// After each change both twins run the same slots; records, counters,
// executed slots and the full traces (mac.swap and mac.swap_drop included)
// must match, and the patched index must equal a full install. A third
// simulator starts from an empty schedule and is patched with the ledger's
// whole initial record.
func TestPatchMatchesFullInstall(t *testing.T) {
	tree := topology.Testbed50()
	// Tasks at every third node: the other leaves' links carry no traffic,
	// so they have no queue until a schedule names them.
	tasks := traffic.NewSet()
	for i, id := range tree.Nodes()[1:] {
		if i%3 == 0 {
			if err := tasks.Add(traffic.Task{ID: traffic.TaskID(id), Source: id, Actuator: id, Rate: 1.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := schedule.Testbed()
	base := harpSchedule(t, tree, tasks, f)
	g, err := schedule.NewLedger(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range base.Links() {
		g.Set(l, base.Cells(l))
	}
	cfg := Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 0.9, MaxRetries: 4, MaxQueue: 8, Seed: 5}
	// A simulator holding an empty schedule (cosim's fallback when the
	// static schedule leaves the frame) reaches the ledger's schedule by
	// patching the ledger's whole record.
	fromEmpty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := schedule.NewSchedule(f)
	if err != nil {
		t.Fatal(err)
	}
	fromEmpty.SetSchedule(empty)
	fromEmpty.PatchSchedule(g.Schedule(), g.TakeChanged(nil))
	if err := fromEmpty.checkAgainstFullInstall(g.Schedule()); err != nil {
		t.Fatalf("patch from an empty schedule: %v", err)
	}
	twin := func() (*Simulator, *obs.Tracer) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(s.Clock())
		s.SetTracer(tr)
		s.SetSchedule(g.Schedule())
		return s, tr
	}
	patched, patchedTr := twin()
	full, fullTr := twin()

	rng := rand.New(rand.NewSource(7))
	randomCell := func() schedule.Cell {
		return schedule.Cell{Slot: rng.Intn(f.DataSlots), Channel: rng.Intn(f.Channels)}
	}
	pick := func(ok func(topology.Link) bool) (topology.Link, bool) {
		var cands []topology.Link
		for _, l := range g.Schedule().Links() {
			if ok(l) {
				cands = append(cands, l)
			}
		}
		if len(cands) == 0 {
			return topology.Link{}, false
		}
		return cands[rng.Intn(len(cands))], true
	}
	var unserved []topology.Link // links whose every cell was taken
	var changed []topology.Link
	var strandedByOthers, refilledGiveBacks, freshQueues, moves int
	// step commits the change just made to the touched links into both
	// twins, then runs them.
	step := func(what string, touched ...topology.Link) {
		// A queue that filled while unserved must be drained even by a
		// commit that does not touch its link.
		for _, l := range unserved {
			if patched.QueueDepth(l) > 0 && len(g.Cells(l)) == 0 && !slices.Contains(touched, l) {
				strandedByOthers++
			}
		}
		changed = g.TakeChanged(changed)
		slices.SortFunc(touched, compareLinks)
		slices.SortFunc(changed, compareLinks)
		if !slices.Equal(changed, touched) {
			t.Fatalf("%s: ledger recorded %v, the change touched %v", what, changed, touched)
		}
		patched.PatchSchedule(g.Schedule(), changed)
		if err := patched.checkAgainstFullInstall(g.Schedule()); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		full.SetSchedule(g.Schedule())
		n := f.Slots/2 + rng.Intn(2*f.Slots)
		if err := patched.Run(n); err != nil {
			t.Fatal(err)
		}
		if err := full.Run(n); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(patched.Records(), full.Records()) {
			t.Fatalf("%s: packet records diverge", what)
		}
		if cp, cf := snapshotCounters(patched), snapshotCounters(full); cp != cf {
			t.Fatalf("%s: counters diverge: patched %+v, full %+v", what, cp, cf)
		}
		if p, q := patched.ExecutedSlots(), full.ExecutedSlots(); p != q {
			t.Fatalf("%s: executed slots %d patched, %d full", what, p, q)
		}
		if !reflect.DeepEqual(patchedTr.Events(), fullTr.Events()) {
			t.Fatalf("%s: traces diverge", what)
		}
	}
	for round := 0; round < 6; round++ {
		// Raise a link by one cell, then lower another by one.
		if l, ok := pick(func(topology.Link) bool { return true }); ok {
			g.Set(l, append(slices.Clone(g.Cells(l)), randomCell()))
			step("raise", l)
		}
		if l, ok := pick(func(l topology.Link) bool { return len(g.Cells(l)) >= 2 }); ok {
			cells := slices.Clone(g.Cells(l))
			i := rng.Intn(len(cells))
			g.Set(l, append(cells[:i], cells[i+1:]...))
			step("lower", l)
		}
		// Take every cell from a link with queued packets.
		if l, ok := pick(func(l topology.Link) bool { return patched.QueueDepth(l) > 0 }); ok {
			g.Set(l, nil)
			unserved = append(unserved, l)
			step("strand", l)
		}
		// Schedule a link the simulator has never seen.
		if l, ok := freshLink(tree, patched, rng); ok {
			g.Set(l, []schedule.Cell{randomCell(), randomCell()})
			freshQueues++
			step("fresh", l)
		}
		// Give cells back to a link unserved since an earlier round; its
		// queue may have refilled meanwhile.
		if len(unserved) > 1 {
			l := unserved[0]
			unserved = unserved[1:]
			if patched.QueueDepth(l) > 0 {
				refilledGiveBacks++
			}
			g.Set(l, []schedule.Cell{randomCell(), randomCell(), randomCell()})
			step("give back", l)
		}
		// Move a node under a parent outside its subtree.
		if child, parent, ok := legalMove(tree, rng); ok {
			if err := g.Reparent(child, parent); err != nil {
				t.Fatal(err)
			}
			moves++
			step("move", topology.Link{Child: child, Direction: topology.Uplink},
				topology.Link{Child: child, Direction: topology.Downlink})
		}
	}
	t.Logf("queues drained by unrelated commits %d, refilled queues given cells back %d, fresh queues %d, moves %d",
		strandedByOthers, refilledGiveBacks, freshQueues, moves)
	if strandedByOthers == 0 || refilledGiveBacks == 0 || freshQueues == 0 || moves == 0 {
		t.Fatal("the sequence missed a change kind it exists to cover")
	}
	if patched.SwapDrops == 0 {
		t.Fatal("no swap drained a stranded queue")
	}
}

// freshLink returns a link of a node in tree that has no queue in s yet.
func freshLink(tree *topology.Tree, s *Simulator, rng *rand.Rand) (topology.Link, bool) {
	var cands []topology.Link
	for _, id := range tree.Nodes()[1:] {
		for _, d := range topology.Directions() {
			l := topology.Link{Child: id, Direction: d}
			if _, ok := s.queueIx[l]; !ok {
				cands = append(cands, l)
			}
		}
	}
	if len(cands) == 0 {
		return topology.Link{}, false
	}
	return cands[rng.Intn(len(cands))], true
}

// legalMove picks a non-gateway node and a new parent outside its subtree.
func legalMove(tree *topology.Tree, rng *rand.Rand) (child, parent topology.NodeID, ok bool) {
	nodes := tree.Nodes()
	for try := 0; try < 100; try++ {
		child = nodes[1+rng.Intn(len(nodes)-1)]
		parent = nodes[rng.Intn(len(nodes))]
		sub, err := tree.Subtree(child)
		if err != nil {
			return 0, 0, false
		}
		old, _ := tree.Parent(child) //harplint:allow errcheck child comes from tree.Nodes()
		if parent != old && !slices.Contains(sub, parent) {
			return child, parent, true
		}
	}
	return 0, 0, false
}

func compareLinks(a, b topology.Link) int {
	if c := cmp.Compare(a.Direction, b.Direction); c != 0 {
		return c
	}
	return cmp.Compare(a.Child, b.Child)
}

// TestCommitPatchesOnlyChangedLinks is the structural O(change) check of
// the MAC side of a commit: the same one-link raise, absorbed locally by
// the link's parent, reaches the simulator as a delta naming only that
// link, on a 1k and on a 10k fleet whose schedule holds a hundred other
// links or more. Every other link's index entries stay as they were, and the
// patched index equals a full install.
func TestCommitPatchesOnlyChangedLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys a 10k fleet")
	}
	f := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
	for _, nodes := range []int{1_000, 10_000} {
		tree, err := topology.GenerateScale(topology.GenSpec{Nodes: nodes, Layers: 6, MaxChildren: 8},
			rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		// The raised link needs 2 cells of its parent's partition, then 1,
		// then 2 again, so the raise fits locally. Echo tasks at 40 nodes
		// spread outside the parent's subtree load the rest of the schedule.
		var parent topology.NodeID
		var sub []topology.NodeID
		for _, id := range tree.Children(topology.GatewayID) {
			s, err := tree.Subtree(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(s) > 1 && (sub == nil || len(s) < len(sub)) {
				parent, sub = id, s
			}
		}
		child := tree.Children(parent)[0]
		up := topology.Link{Child: child, Direction: topology.Uplink}
		others := traffic.NewSet()
		for i, id := range tree.Nodes()[1:] {
			if i%20 == 7 && others.Len() < 40 && !slices.Contains(sub, id) {
				if err := others.Add(traffic.Task{ID: traffic.TaskID(id), Source: id, Actuator: id, Rate: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		load, err := traffic.Compute(tree, others)
		if err != nil {
			t.Fatal(err)
		}
		cells := map[topology.Link]int{up: 2}
		for _, l := range load.Links() {
			cells[l] = load.Cells(l)
		}
		bus, err := transport.NewBus(f.Slots, 1)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := agent.Deploy(tree, f, traffic.FromCells(cells), bus)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Start()
		tasks := traffic.NewSet()
		if err := tasks.Add(traffic.Task{ID: 1, Source: child, Actuator: child, Rate: 1}); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var changed []topology.Link
		commit := func(demand int) *schedule.Schedule {
			t.Helper()
			if demand > 0 {
				if err := fleet.SetLinkDemand(up, demand, float64(demand)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bus.Run(); err != nil {
				t.Fatal(err)
			}
			sched, err := fleet.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			changed = fleet.TakeScheduleChanges(changed)
			return sched
		}
		s.SetSchedule(commit(0))
		s.PatchSchedule(commit(1), changed)
		sched := commit(2)
		if !slices.Equal(changed, []topology.Link{up}) {
			t.Fatalf("%d nodes: the raise changed %v, want only %v", nodes, changed, up)
		}
		if n := len(sched.Links()); n < 100 {
			t.Fatalf("%d nodes: schedule holds %d links, want at least 100", nodes, n)
		}
		t.Logf("%d nodes: %d scheduled links, the raise patched %d", nodes, len(sched.Links()), len(changed))
		before := indexWithout(s, up)
		s.PatchSchedule(sched, changed)
		if err := s.checkAgainstFullInstall(sched); err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if !reflect.DeepEqual(indexWithout(s, up), before) {
			t.Errorf("%d nodes: the patch moved other links' index entries", nodes)
		}
		if got := len(s.linkCellsQ[s.queueIx[up]]); got != 2 {
			t.Errorf("%d nodes: raised link holds %d cells in the index, want 2", nodes, got)
		}
	}
}

// indexWithout copies the simulator's per-slot cell lists, leaving out
// link l's entries.
func indexWithout(s *Simulator, l topology.Link) [][]scheduledCell {
	out := make([][]scheduledCell, len(s.cellsBySlot))
	for sif, cells := range s.cellsBySlot {
		for _, sc := range cells {
			if sc.link != l {
				out[sif] = append(out[sif], sc)
			}
		}
	}
	return out
}
