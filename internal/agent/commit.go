package agent

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/harpnet/harp/internal/bitset"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// changes is what agents report to their fleet as they mutate: the nodes
// whose own-layer assignment was written since the last commit, and the
// running count of in-flight escalations.
// Handlers write it under their own node lock, possibly on many goroutines
// (Live), hence its own mutex.
type changes struct {
	mu    sync.Mutex
	bits  []uint64 // queued dense indices
	dirty []int32  // queue, in marking order
	// pending counts the (node, direction, layer) escalation stamps
	// (dirState.pendingSince): PendingAdjustments without a fleet scan.
	pending atomic.Int64
}

func newChanges(indexCap int) *changes {
	return &changes{bits: make([]uint64, bitset.Words(indexCap))}
}

// mark queues nodes (by dense index) for re-emission at the next commit.
func (c *changes) mark(ixs ...int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ix := range ixs {
		if ix >= 0 && !bitset.Get(c.bits, int(ix)) {
			bitset.Set(c.bits, int(ix))
			c.dirty = append(c.dirty, ix)
		}
	}
}

// drain hands the queued nodes to the commit path, reusing the caller's
// buffer, and empties the queue.
func (c *changes) drain(dirty []int32) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ix := range c.dirty {
		bitset.Clear(c.bits, int(ix))
	}
	dirty = append(dirty[:0], c.dirty...)
	c.dirty = c.dirty[:0]
	return dirty
}

// linkShare is one agent's cells on a link that several agents assign at
// once: transiently, while a moved child's old parent has not yet dropped
// it.
type linkShare struct {
	owner topology.NodeID
	cells []schedule.Cell
}

// commitState is the fleet's persistent global schedule and the bookkeeping
// that patches it from per-node deltas. The schedule shares the agents'
// assignment slices, which are never modified in place.
type commitState struct {
	mu sync.Mutex
	g  *schedule.Ledger
	// owned lists the links each agent assigned at its last re-read; co
	// holds the per-agent cells of links several agents assign, by owner.
	owned map[topology.NodeID][]topology.Link
	co    map[topology.Link][]linkShare
	// reemitted counts dirty nodes re-read across all commits: the
	// structural O(change) measure the tests pin.
	reemitted int

	dirty []int32
	links []topology.Link
}

// Schedule commits the fleet's current assignments into its persistent
// global schedule and returns it, with the verdict Validate gives: a cell
// shared by two links (naming the lowest), a half-duplex violation, or an
// out-of-frame cell. Only nodes whose assignment was written since the
// last call are re-read, and the verdict comes from occupancy tables moved
// by the same delta. The returned schedule is patched in place by the next
// call: use it before then, or copy it. Under harpdebug the result is
// checked against BuildSchedule, which assumes no handler mutates the
// fleet meanwhile: on Live, call it once the transport is idle (cosim
// calls it between events on the clock's own goroutine).
func (f *Fleet) Schedule() (*schedule.Schedule, error) {
	c := &f.commit
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == nil {
		g, err := schedule.NewLedger(f.Frame, f.Tree)
		if err != nil {
			return nil, err
		}
		c.g = g
		c.owned = make(map[topology.NodeID][]topology.Link)
		c.co = make(map[topology.Link][]linkShare)
	}
	c.dirty = f.changes.drain(c.dirty)
	for _, ix := range c.dirty {
		if n := f.nodes[ix]; n != nil {
			c.reemit(n)
		}
	}
	c.reemitted += len(c.dirty)
	verdict := c.g.Validate()
	if debugChecks {
		if err := f.CheckAgainstRebuild(c.g.Schedule(), verdict); err != nil {
			panic("harpdebug: " + err.Error())
		}
	}
	return c.g.Schedule(), verdict
}

// TakeScheduleChanges returns the links whose cells or endpoints the
// persistent schedule changed since the last call, and starts the next
// record in dst's storage (schedule.Ledger.TakeChanged). A MAC that holds
// the schedule as of the last call patches exactly these links. Schedule
// calls that install nothing (a sample, a refused commit) only add to the
// record.
func (f *Fleet) TakeScheduleChanges(dst []topology.Link) []topology.Link {
	c := &f.commit
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == nil {
		return dst[:0]
	}
	return c.g.TakeChanged(dst)
}

// reparent moves node under newParent in the fleet's tree, through the
// ledger once it exists so the node's links are re-booked under their new
// endpoints.
func (c *commitState) reparent(tree *topology.Tree, node, newParent topology.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == nil {
		return tree.Reparent(node, newParent)
	}
	return c.g.Reparent(node, newParent)
}

// reemit re-reads one node's assignment into the ledger.
//
//harplint:locked — caller holds c.mu.
func (c *commitState) reemit(n *Node) {
	id := n.id
	before := c.owned[id]
	links := c.links[:0]
	n.eachAssigned(func(l topology.Link, cells []schedule.Cell) {
		links = append(links, l)
		c.assign(l, id, containsLink(before, l), cells)
	})
	c.links = links
	// Links this node no longer assigns lose its cells.
	for _, l := range before {
		if !containsLink(links, l) {
			c.unassign(l, id)
		}
	}
	if len(links) == 0 {
		delete(c.owned, id)
	} else {
		c.owned[id] = append(before[:0], links...)
	}
}

// assign records that owner assigns cells to l; had tells whether it
// already did at its last re-read.
//
//harplint:locked — caller holds c.mu.
func (c *commitState) assign(l topology.Link, owner topology.NodeID, had bool, cells []schedule.Cell) {
	sh, shared := c.co[l]
	if !shared && !had && c.g.Cells(l) != nil {
		// Another agent already schedules l: a moved child's old parent
		// has not dropped it yet. Rare, so finding that agent may scan.
		sh, shared = []linkShare{{owner: c.ownerOf(l), cells: c.g.Cells(l)}}, true
	}
	if !shared {
		c.g.Set(l, cells)
		return
	}
	i := sort.Search(len(sh), func(i int) bool { return sh[i].owner >= owner })
	if i == len(sh) || sh[i].owner != owner {
		sh = append(sh, linkShare{})
		copy(sh[i+1:], sh[i:])
	}
	sh[i] = linkShare{owner: owner, cells: cells}
	c.co[l] = sh
	c.g.Set(l, concatShares(sh))
}

// ownerOf finds the one agent whose last re-read assigned l.
//
//harplint:locked — caller holds c.mu.
func (c *commitState) ownerOf(l topology.Link) topology.NodeID {
	owner := topology.None
	for id, links := range c.owned {
		if containsLink(links, l) {
			owner = id
		}
	}
	return owner
}

// unassign records that owner, which assigned l at its last re-read, no
// longer does.
//
//harplint:locked — caller holds c.mu.
func (c *commitState) unassign(l topology.Link, owner topology.NodeID) {
	sh, shared := c.co[l]
	if !shared {
		c.g.Set(l, nil)
		return
	}
	for i := range sh {
		if sh[i].owner == owner {
			sh = append(sh[:i], sh[i+1:]...)
			break
		}
	}
	if len(sh) == 1 {
		delete(c.co, l)
		c.g.Set(l, sh[0].cells)
		return
	}
	c.co[l] = sh
	c.g.Set(l, concatShares(sh))
}

// concatShares is a shared link's cells in the global schedule: every
// owner's, in owner order, as a full rebuild holds them.
func concatShares(sh []linkShare) []schedule.Cell {
	var out []schedule.Cell
	for _, s := range sh {
		out = append(out, s.cells...)
	}
	return out
}

// BuildSchedule assembles the global schedule from scratch out of every
// agent's local assignment, reading each under its lock. It is the full
// rebuild the persistent schedule is checked against (invariant.CheckFleet,
// the harpdebug oracle in Schedule).
func (f *Fleet) BuildSchedule() (*schedule.Schedule, error) {
	s, err := schedule.NewSchedule(f.Frame)
	if err != nil {
		return nil, err
	}
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		n.eachAssigned(func(l topology.Link, cells []schedule.Cell) {
			if err == nil {
				err = s.Assign(l, cells...)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Validate commits the fleet's schedule (Schedule) and returns its
// collision-freedom and half-duplex verdict.
func (f *Fleet) Validate() error {
	_, err := f.Schedule()
	return err
}

// PendingAdjustments counts the fleet's in-flight adjustments: layers
// holding a stamped escalation whose grant has not committed yet. The
// telemetry layer samples it at window boundaries; agents keep the count
// up to date as they stamp and clear escalations.
func (f *Fleet) PendingAdjustments() int {
	n := int(f.changes.pending.Load())
	if debugChecks {
		if scan := f.scanPending(); scan != n {
			panic(fmt.Sprintf("harpdebug: running pending count %d, fleet scan %d", n, scan))
		}
	}
	return n
}

// scanPending is PendingAdjustments the slow way, reading every agent.
func (f *Fleet) scanPending() int {
	total := 0
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		n.mu.Lock()
		for _, d := range topology.Directions() {
			total += len(n.dir(d).pendingSince)
		}
		n.mu.Unlock()
	}
	return total
}

// CheckAgainstRebuild holds a schedule Schedule returned, with its
// verdict, against the full rebuild: the same (link, cell) pairs, and the
// verdict Schedule.Validate gives the rebuild. It returns nil when they
// agree. It is the harpdebug oracle, and what the equivalence tests call.
func (f *Fleet) CheckAgainstRebuild(s *schedule.Schedule, verdict error) error {
	full, err := f.BuildSchedule()
	if err != nil {
		if !errors.Is(verdict, schedule.ErrOutOfFrame) {
			return fmt.Errorf("full rebuild failed (%v), persistent verdict %v", err, verdict)
		}
		return nil
	}
	if s == nil || !schedule.Equivalent(full, s) {
		return errors.New("persistent schedule differs from the full rebuild")
	}
	want := full.Validate(f.Tree)
	if (verdict == nil) != (want == nil) || (verdict != nil && verdict.Error() != want.Error()) {
		return fmt.Errorf("persistent verdict %v, full Validate %v", verdict, want)
	}
	return nil
}

func containsLink(ls []topology.Link, l topology.Link) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}
