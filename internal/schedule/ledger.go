package schedule

import (
	"fmt"
	"math"
	"sort"

	"github.com/harpnet/harp/internal/bitset"
	"github.com/harpnet/harp/internal/topology"
)

// Ledger is a Schedule maintained link by link, together with occupancy
// tables that give Validate's verdict without re-reading the schedule:
// the number of distinct links on every cell (a dense slot-major table)
// and on every (slot, endpoint) pair. Set replaces one link's cells and
// moves both tables by the difference, so a change to k links costs
// O(cells of those links), not O(schedule). Endpoints come from the tree;
// once the ledger exists, the tree may change only through
// Ledger.Reparent, which re-books the moved node's links.
//
// The ledger also records which links changed — their cells, or their
// endpoints after a Reparent — until TakeChanged hands the record over,
// so a consumer holding an earlier copy of the schedule (the MAC) can
// patch just those links.
type Ledger struct {
	s    *Schedule
	tree *topology.Tree

	cellLinks []uint16 // distinct links per in-frame cell, index slot*Channels+channel
	shared    []uint64 // bitset of cellLinks entries >= 2
	nShared   int
	// radio holds, per endpoint, the slots it uses with the number of
	// distinct links in each, sorted by slot. A node uses few slots, so
	// this stays small where a dense slots x nodes table would not.
	radio map[topology.NodeID][]radioUse
	// halfDuplex is the sum of k(k-1)/2 over the radio counts: exactly
	// what Schedule.HalfDuplexViolations reports.
	halfDuplex int
	outOfFrame int // links holding a cell outside the slotframe
	unplaced   int // links whose child the tree does not know

	// changed lists the links recorded since the last TakeChanged, once
	// each: changedBits marks them by (child's dense tree index,
	// direction). A link whose child the tree does not know has no index
	// and is listed at every change.
	changed     []topology.Link
	changedBits []uint64

	scratch []Cell
}

// radioUse is one radio's occupancy in one slot. A TSCH slotframe has at
// most 65535 slots (16-bit size), so both fields fit 16 bits.
type radioUse struct {
	slot, links uint16
}

// NewLedger returns an empty ledger over the given slotframe whose
// half-duplex check resolves endpoints in tree.
func NewLedger(frame Slotframe, tree *topology.Tree) (*Ledger, error) {
	s, err := NewSchedule(frame)
	if err != nil {
		return nil, err
	}
	if frame.Slots > math.MaxUint16 {
		return nil, fmt.Errorf("schedule: ledger needs a slotframe of at most %d slots, got %d", math.MaxUint16, frame.Slots)
	}
	n := frame.Slots * frame.Channels
	return &Ledger{
		s:         s,
		tree:      tree,
		cellLinks: make([]uint16, n),
		shared:    make([]uint64, bitset.Words(n)),
		radio:     make(map[topology.NodeID][]radioUse),
	}, nil
}

// Schedule returns the ledger's schedule. It is live: later Set calls
// patch it in place, so a caller that keeps it across changes must copy
// it.
func (g *Ledger) Schedule() *Schedule { return g.s }

// Cells returns link l's cells: the slice last passed to Set, not a copy.
func (g *Ledger) Cells(l topology.Link) []Cell { return g.s.cells[l] }

// Set replaces link l's cells (nil or empty removes the link). The ledger
// keeps cells without copying them; the caller must never modify the
// slice afterwards.
func (g *Ledger) Set(l topology.Link, cells []Cell) {
	old, ok := g.s.cells[l]
	if ok && cellsEqual(old, cells) {
		g.s.cells[l] = cells // same occupancy
		return
	}
	if !ok && len(cells) == 0 {
		return
	}
	g.record(l)
	if ok {
		g.book(l.Child, old, -1)
		delete(g.s.cells, l)
	}
	if len(cells) > 0 {
		g.book(l.Child, cells, +1)
		g.s.cells[l] = cells
	}
}

// record adds l to the change record.
func (g *Ledger) record(l topology.Link) {
	if i := g.tree.Index(l.Child); i >= 0 {
		b := 2*i + int(l.Direction)
		if w := bitset.Words(b + 1); w > len(g.changedBits) {
			g.changedBits = append(g.changedBits, make([]uint64, w-len(g.changedBits))...)
		}
		if bitset.Get(g.changedBits, b) {
			return
		}
		bitset.Set(g.changedBits, b)
	}
	g.changed = append(g.changed, l)
}

// TakeChanged returns the links recorded since the last call, in
// recording order, and starts the next record in dst's storage (reset to
// length zero). A caller that passes back the slice it got last time
// alternates two buffers without allocating. Validate and Schedule do not
// consume the record: it grows until taken.
func (g *Ledger) TakeChanged(dst []topology.Link) []topology.Link {
	out := g.changed
	for _, l := range out {
		if i := g.tree.Index(l.Child); i >= 0 {
			bitset.Clear(g.changedBits, 2*i+int(l.Direction))
		}
	}
	g.changed = dst[:0]
	return out
}

// Reparent moves child under newParent in the ledger's tree and re-books
// the child's own links under their new endpoints. Both links are
// recorded as changed: their endpoints moved.
func (g *Ledger) Reparent(child, newParent topology.NodeID) error {
	own := [2]topology.Link{{Child: child, Direction: topology.Uplink}, {Child: child, Direction: topology.Downlink}}
	for _, l := range own {
		g.record(l)
		g.book(child, g.s.cells[l], -1)
	}
	err := g.tree.Reparent(child, newParent)
	for _, l := range own {
		g.book(child, g.s.cells[l], +1)
	}
	return err
}

// book adds (delta=+1) or removes (delta=-1) the occupancy of one link of
// child's, running to child's parent in the tree. Duplicate cells within
// the link count once, as in CellSharers, and so do several cells in one
// slot, as in HalfDuplexViolations.
func (g *Ledger) book(child topology.NodeID, cells []Cell, delta int) {
	if len(cells) == 0 {
		return
	}
	parent, err := g.tree.Parent(child)
	if err != nil {
		g.unplaced += delta
	}
	buf := append(g.scratch[:0], cells...)
	// Insertion sort: agent assignments arrive slot-ordered, so this is
	// linear in practice and allocation-free.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && cellLess(buf[j], buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	g.scratch = buf
	oof := false
	lastSlot := -1
	for i, c := range buf {
		if i > 0 && c == buf[i-1] {
			continue
		}
		if !g.s.Frame.Contains(c) {
			oof = true
			continue
		}
		g.bookCell(c.Slot*g.s.Frame.Channels+c.Channel, delta)
		if err == nil && c.Slot != lastSlot {
			lastSlot = c.Slot
			g.bookRadio(child, uint16(c.Slot), delta)
			if parent != child {
				g.bookRadio(parent, uint16(c.Slot), delta)
			}
		}
	}
	if oof {
		g.outOfFrame += delta
	}
}

func (g *Ledger) bookCell(i, delta int) {
	before := int(g.cellLinks[i])
	after := before + delta
	g.cellLinks[i] = uint16(after)
	switch {
	case before < 2 && after >= 2:
		bitset.Set(g.shared, i)
		g.nShared++
	case before >= 2 && after < 2:
		bitset.Clear(g.shared, i)
		g.nShared--
	}
}

func (g *Ledger) bookRadio(node topology.NodeID, slot uint16, delta int) {
	uses := g.radio[node]
	i := sort.Search(len(uses), func(i int) bool { return uses[i].slot >= slot })
	if i == len(uses) || uses[i].slot != slot {
		uses = append(uses, radioUse{})
		copy(uses[i+1:], uses[i:])
		uses[i] = radioUse{slot: slot}
	}
	before := int(uses[i].links)
	after := before + delta
	if after == 0 {
		uses = append(uses[:i], uses[i+1:]...)
	} else {
		uses[i].links = uint16(after)
	}
	if len(uses) == 0 {
		delete(g.radio, node)
	} else {
		g.radio[node] = uses
	}
	// k links on one radio in one slot are k(k-1)/2 violating pairs.
	g.halfDuplex += after*(after-1)/2 - before*(before-1)/2
}

// Validate returns the verdict the fleet's full check gives for the same
// schedule: an out-of-frame cell first (Schedule.Assign's error), then the
// lowest shared cell, then an unresolvable endpoint, then the half-duplex
// violation count. A valid schedule costs O(1); only the error paths scan
// the links, to name the culprit.
func (g *Ledger) Validate() error {
	if g.outOfFrame > 0 {
		var first error
		var at topology.Link
		for l, cs := range g.s.cells {
			for _, c := range cs {
				if !g.s.Frame.Contains(c) {
					if first == nil || linkLess(l, at) {
						first, at = fmt.Errorf("%w: %v", ErrOutOfFrame, c), l
					}
					break
				}
			}
		}
		return first
	}
	if g.nShared > 0 {
		i, _ := bitset.NextSet(g.shared, len(g.cellLinks), 0)
		c := Cell{Slot: i / g.s.Frame.Channels, Channel: i % g.s.Frame.Channels}
		var holders []topology.Link
		for l, cs := range g.s.cells {
			for _, x := range cs {
				if x == c {
					holders = append(holders, l)
					break
				}
			}
		}
		sort.Slice(holders, func(i, j int) bool { return linkLess(holders[i], holders[j]) })
		return sharedCellError(c, holders)
	}
	if g.unplaced > 0 {
		var first error
		var at topology.Link
		for l := range g.s.cells {
			if _, err := g.tree.Parent(l.Child); err != nil && (first == nil || linkLess(l, at)) {
				first, at = err, l
			}
		}
		return first
	}
	if g.halfDuplex > 0 {
		return halfDuplexError(g.halfDuplex)
	}
	return nil
}

func cellsEqual(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
