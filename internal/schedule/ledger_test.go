package schedule

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/harpnet/harp/internal/topology"
)

// rebuilt assembles the reference schedule from scratch, the way a full
// rebuild would: Assign every link's cells, failing on out-of-frame cells.
func rebuilt(frame Slotframe, want map[topology.Link][]Cell) (*Schedule, error) {
	s, err := NewSchedule(frame)
	if err != nil {
		return nil, err
	}
	for l, cells := range want {
		if err := s.Assign(l, cells...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// TestLedgerMatchesFullValidate is the ledger's differential test: random
// link rewrites (duplicate cells, shared cells, several cells per slot,
// occasional out-of-frame cells and unknown children) and random reparents
// must leave the ledger's schedule equal to a from-scratch rebuild and its
// verdict equal, message for message, to the rebuild's.
func TestLedgerMatchesFullValidate(t *testing.T) {
	frame := Slotframe{Slots: 6, Channels: 2, DataSlots: 6, SlotDuration: testFrame().SlotDuration}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		tree := topology.New()
		for id := topology.NodeID(1); id <= 8; id++ {
			if err := tree.AddNode(id, topology.NodeID(rng.Intn(int(id)))); err != nil {
				t.Fatal(err)
			}
		}
		g, err := NewLedger(frame, tree)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[topology.Link][]Cell)
		for step := 0; step < 60; step++ {
			if rng.Intn(8) == 0 {
				// Move a node (cycles are refused); its links follow.
				_ = g.Reparent(topology.NodeID(1+rng.Intn(8)), topology.NodeID(rng.Intn(9)))
			} else {
				l := topology.Link{Child: topology.NodeID(1 + rng.Intn(9)), Direction: topology.Direction(rng.Intn(2))}
				var cells []Cell
				for k := rng.Intn(4); k > 0; k-- {
					c := Cell{Slot: rng.Intn(frame.Slots), Channel: rng.Intn(frame.Channels)}
					if rng.Intn(25) == 0 {
						c.Slot = frame.Slots
					}
					cells = append(cells, c)
				}
				if len(cells) == 0 {
					delete(want, l)
				} else {
					want[l] = cells
				}
				g.Set(l, append([]Cell(nil), cells...))
			}
			ref, refErr := rebuilt(frame, want)
			got := g.Validate()
			if refErr != nil {
				if !errors.Is(got, ErrOutOfFrame) {
					t.Fatalf("trial %d step %d: rebuild failed with %v, ledger says %v", trial, step, refErr, got)
				}
				continue
			}
			if !Equivalent(ref, g.Schedule()) || !reflect.DeepEqual(transmissionSet(ref), transmissionSet(g.Schedule())) {
				t.Fatalf("trial %d step %d: ledger schedule diverged from rebuild", trial, step)
			}
			refVerdict := ref.Validate(tree)
			if (got == nil) != (refVerdict == nil) || (got != nil && got.Error() != refVerdict.Error()) {
				t.Fatalf("trial %d step %d: ledger verdict %v, full Validate %v", trial, step, got, refVerdict)
			}
		}
	}
}

// transmissionSet is a schedule's (link, cell) multiset in canonical order.
func transmissionSet(s *Schedule) []Transmission {
	out := s.Transmissions()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link != out[j].Link {
			return linkLess(out[i].Link, out[j].Link)
		}
		return cellLess(out[i].Cell, out[j].Cell)
	})
	return out
}

// TestLedgerNamesLowestSharedCell pins the deterministic collision verdict
// both Validate paths give: the lowest shared cell and its sorted holders.
func TestLedgerNamesLowestSharedCell(t *testing.T) {
	tree := topology.New()
	for id := topology.NodeID(1); id <= 3; id++ {
		if err := tree.AddNode(id, topology.GatewayID); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewLedger(testFrame(), tree)
	if err != nil {
		t.Fatal(err)
	}
	up := func(c topology.NodeID) topology.Link { return topology.Link{Child: c, Direction: topology.Uplink} }
	g.Set(up(3), []Cell{{Slot: 4, Channel: 1}, {Slot: 2, Channel: 3}})
	g.Set(up(1), []Cell{{Slot: 4, Channel: 1}})
	g.Set(up(2), []Cell{{Slot: 2, Channel: 3}})
	const want = "schedule: cell (2,3) shared by 2 links [uplink[2] uplink[3]]"
	if err := g.Validate(); err == nil || err.Error() != want {
		t.Fatalf("ledger verdict %v, want %q", err, want)
	}
	if err := g.Schedule().Validate(tree); err == nil || err.Error() != want {
		t.Fatalf("full verdict %v, want %q", err, want)
	}
	g.Set(up(2), nil)
	g.Set(up(3), nil)
	if err := g.Validate(); err != nil {
		t.Fatalf("after clearing the sharers: %v", err)
	}
}
