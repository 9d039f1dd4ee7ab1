package agent

import (
	"math/rand"
	"testing"

	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// TestLeaveDropsDepartedChildCells is the regression test for a departed
// child's cells outliving its leave. Node 5 of Fig. 1 has an escalation in
// flight in both directions (sibling 9 outgrew the partition), so when 8
// leaves, assignOwn takes its underfit branch, which only revisits current
// children. The leave itself must drop 8's cells, or the link stays
// scheduled from 5 after 8 re-attaches under 7 and can collide there.
// After the move settles, the persistent schedule must still equal the
// full rebuild.
func TestLeaveDropsDepartedChildCells(t *testing.T) {
	tree := topology.Fig1()
	fleet, bus := deployOnBus(t, tree, 1, testFrame())
	p, _ := fleet.Node(5)
	for _, d := range topology.Directions() {
		if len(p.Assignment(d)[8]) == 0 {
			t.Fatalf("precondition: link 8 %s holds no cells at node 5", d)
		}
		region, ok := p.Partition(d, 3)
		if !ok {
			t.Fatalf("precondition: node 5 has no own-layer %s partition", d)
		}
		big := region.CellCount() + 1
		if err := fleet.SetLinkDemand(topology.Link{Child: 9, Direction: d}, big, float64(big)); err != nil {
			t.Fatal(err)
		}
	}
	// Adopt 8 away as the failure detector does when it declares 5 dead:
	// the leave is applied to 5 directly and 5's demands are not reloaded.
	dead := func(id topology.NodeID) bool { return id == 5 }
	if err := fleet.Adopt(8, 7, reparentedDemand(t, tree, 8, 7), dead); err != nil {
		t.Fatal(err)
	}
	full, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range topology.Directions() {
		if cells := p.Assignment(d)[8]; len(cells) != 0 {
			t.Errorf("node 5 still assigns %d %s cells to departed child 8", len(cells), d)
		}
		if cells := full.Cells(topology.Link{Child: 8, Direction: d}); len(cells) != 0 {
			t.Errorf("link 8 %s still scheduled (%v) before its new parent assigned it", d, cells)
		}
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.CheckAgainstRebuild(fleet.Schedule()); err != nil {
		t.Errorf("after the move: %v", err)
	}
}

// TestCommitReemitsOnlyChangedNodes is the structural O(change) check: the
// same one-link raise, absorbed locally by the link's parent, re-reads the
// same number of agents on a 1k and on a 10k fleet. Counted through the
// ledger's re-emission counter, not wall time.
func TestCommitReemitsOnlyChangedNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys a 10k fleet")
	}
	var counts []int
	for _, nodes := range []int{1_000, 10_000} {
		tree, err := topology.GenerateScale(topology.GenSpec{Nodes: nodes, Layers: 6, MaxChildren: 8},
			rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		// One gateway child with one child of its own carries the only
		// demand: 2 cells of which 1 is used, so the raise fits locally.
		parent := tree.Children(topology.GatewayID)[0]
		child := tree.Children(parent)[0]
		up := topology.Link{Child: child, Direction: topology.Uplink}
		bus, err := transport.NewBus(testFrame().Slots, 1)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := Deploy(tree, testFrame(), traffic.FromCells(map[topology.Link]int{up: 2}), bus)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Start()
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
		if err := fleet.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := fleet.SetLinkDemand(up, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
		if err := fleet.Validate(); err != nil {
			t.Fatal(err)
		}
		before := fleet.commit.reemitted
		if err := fleet.SetLinkDemand(up, 2, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
		s, err := fleet.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s.Cells(up)); got != 2 {
			t.Fatalf("%d nodes: raised link holds %d cells, want 2", nodes, got)
		}
		counts = append(counts, fleet.commit.reemitted-before)
		t.Logf("%d nodes: %d agents re-read by the commit", nodes, counts[len(counts)-1])
	}
	if counts[0] != counts[1] || counts[0] == 0 || counts[0] > 2 {
		t.Errorf("re-emitted nodes per commit: %d at 1k, %d at 10k; want the same small count", counts[0], counts[1])
	}
}

// TestPendingAdjustmentsAllocFree pins the running pending count: reading
// it allocates nothing (the scan it replaced locked every agent).
func TestPendingAdjustmentsAllocFree(t *testing.T) {
	fleet, _ := deployOnBus(t, topology.Fig1(), 1, testFrame())
	if a := testing.AllocsPerRun(100, func() { _ = fleet.PendingAdjustments() }); a != 0 {
		t.Errorf("PendingAdjustments allocates %.1f times per call", a)
	}
}

// TestPendingCountSurvivesReset strands an escalation at node 1 (the
// gateway it escalates to is down), then reboots node 1: the reset wipes
// the stamp, and the running count must drop with it.
func TestPendingCountSurvivesReset(t *testing.T) {
	tree := topology.Fig1()
	fleet, bus := deployOnBus(t, tree, 1, testFrame())
	fleet.BindVirtualTime(bus.Now)
	bus.Crash(topology.GatewayID)
	// Link 8 outgrows node 5's partition and then node 1's layer-3 one.
	if err := fleet.SetLinkDemand(topology.Link{Child: 8, Direction: topology.Uplink}, 40, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if got, scan := fleet.PendingAdjustments(), fleet.scanPending(); got != scan || got == 0 {
		t.Fatalf("stranded escalation: running count %d, scan %d (want equal and > 0)", got, scan)
	}
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.RestartNode(1, demand); err != nil {
		t.Fatal(err)
	}
	if got, scan := fleet.PendingAdjustments(), fleet.scanPending(); got != scan {
		t.Fatalf("after reset: running count %d, scan %d", got, scan)
	}
}

// TestScheduleFollowsMovedEndpoints commits between a Reparent and the
// delivery of its leave: node 5 still schedules link 8, whose endpoints
// the tree now puts at node 7. The verdict must be judged on the new
// endpoints, exactly as the full rebuild's Validate judges it.
func TestScheduleFollowsMovedEndpoints(t *testing.T) {
	tree := topology.Fig1()
	fleet, _ := deployOnBus(t, tree, 1, testFrame())
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Reparent(8, 7, reparentedDemand(t, tree, 8, 7)); err != nil {
		t.Fatal(err)
	}
	s, verdict := fleet.Schedule()
	if err := fleet.CheckAgainstRebuild(s, verdict); err != nil {
		t.Fatal(err)
	}
	t.Logf("mid-move verdict: %v", verdict)
}
