package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/bitset"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// SetSchedule installs (or replaces) the active cell schedule. Queued
// packets are retained and continue over the new cells — except packets on
// a link the new schedule no longer serves at all, which are drained and
// counted in SwapDrops (a cell-less link would hold them forever). Safe to
// call mid-run from an At or EachSlot callback: the swap takes effect for
// the current slot's transmissions.
//
// The index is rebuilt in place: only the slots the old and the new
// schedule occupy are emptied and refilled, through the same ordered
// insert PatchSchedule uses.
func (s *Simulator) SetSchedule(sched *schedule.Schedule) {
	for q, slots := range s.linkCellsQ {
		for _, sif := range slots {
			s.cellsBySlot[sif] = s.cellsBySlot[sif][:0]
		}
		s.linkCellsQ[q] = slots[:0]
	}
	s.installedCells = 0
	for _, l := range sched.Links() {
		s.install(l, s.qindex(l), sched.LinkCells(l))
	}
	// Rebuild the activity index: one busy transition per non-empty
	// queue. A queue whose link lost every cell lands on the unserved
	// list instead, which finishSwap drains.
	clear(s.busyCount)
	clear(s.busyBits)
	s.unserved = s.unserved[:0]
	for q := range s.queueList {
		if s.queueList[q].depth() > 0 {
			s.markLinkBusy(q)
		}
	}
	s.finishSwap()
}

// PatchSchedule installs sched when the installed schedule differs from
// it only on the changed links — what schedule.Ledger.TakeChanged returns
// between two installs of its live schedule. The result is exactly
// SetSchedule(sched), stranded-queue drain and trace included, at a cost
// of O(cells of the changed links): each changed link's entries leave the
// index, its current cells enter their slots' lists in transmit order with
// freshly resolved endpoints, and a non-empty queue moves its activity
// marks along. A
// duplicate or unchanged link in changed is harmless. Under harpdebug the
// patched index is held against a full install of sched.
func (s *Simulator) PatchSchedule(sched *schedule.Schedule, changed []topology.Link) {
	for _, l := range changed {
		cells := sched.LinkCells(l)
		q, ok := s.queueIx[l]
		if !ok {
			if len(cells) == 0 {
				continue // never installed, still unscheduled
			}
			q = s.qindex(l)
		}
		busy := s.queueList[q].depth() > 0
		if busy {
			s.markLinkIdle(q)
		}
		s.uninstall(l, q)
		s.install(l, q, cells)
		if busy {
			s.markLinkBusy(q)
		}
	}
	s.finishSwap()
	if debugChecks {
		if err := s.checkAgainstFullInstall(sched); err != nil {
			panic("harpdebug: " + err.Error())
		}
	}
}

// install adds link l's cells to the index under queue q, resolving the
// endpoints once for all of them.
func (s *Simulator) install(l topology.Link, q int, cells []schedule.Cell) {
	if len(cells) == 0 {
		return
	}
	sc := s.resolve(l, q)
	slots := s.linkCellsQ[q]
	for _, c := range cells {
		sc.cell = c
		s.cellsBySlot[c.Slot] = insertCell(s.cellsBySlot[c.Slot], sc)
		slots = append(slots, c.Slot)
		if c.Channel >= len(s.usersCh) {
			s.usersCh = append(s.usersCh, make([]int, c.Channel+1-len(s.usersCh))...)
		}
	}
	s.linkCellsQ[q] = slots
	s.installedCells += len(cells)
}

// resolve returns link l's index entry without its cell: the endpoints
// and their commitment-array indices, or the resolution error.
func (s *Simulator) resolve(l topology.Link, q int) scheduledCell {
	sc := scheduledCell{link: l, q: q}
	sc.sender, sc.receiver, sc.err = s.endpointsOf(l)
	if sc.err == nil {
		sc.sIx = s.nodeIndex(sc.sender)
		sc.rIx = s.nodeIndex(sc.receiver)
	}
	return sc
}

// uninstall removes link l's entries (queue q) from the index.
func (s *Simulator) uninstall(l topology.Link, q int) {
	slots := s.linkCellsQ[q]
	for _, sif := range slots {
		cells := s.cellsBySlot[sif]
		kept := cells[:0]
		for _, sc := range cells {
			if sc.link != l {
				kept = append(kept, sc)
			}
		}
		clear(cells[len(kept):])
		s.cellsBySlot[sif] = kept
	}
	s.installedCells -= len(slots)
	s.linkCellsQ[q] = slots[:0]
}

// insertCell inserts sc into one slot's cell list, keeping the transmit
// order: channel, then direction, then child.
func insertCell(cells []scheduledCell, sc scheduledCell) []scheduledCell {
	i := len(cells)
	for i > 0 && compareCells(sc, cells[i-1]) < 0 {
		i--
	}
	cells = append(cells, scheduledCell{})
	copy(cells[i+1:], cells[i:])
	cells[i] = sc
	return cells
}

func compareCells(a, b scheduledCell) int {
	if c := cmp.Compare(a.cell.Channel, b.cell.Channel); c != 0 {
		return c
	}
	if c := cmp.Compare(a.link.Direction, b.link.Direction); c != 0 {
		return c
	}
	return cmp.Compare(a.link.Child, b.link.Child)
}

// finishSwap completes an install: it traces the swap, then drains the
// packets stranded on links the installed schedule no longer serves — the
// unserved list's queues that are still non-empty and cell-less — in
// (child, direction) order so the emitted trace is deterministic
// (queue-index assignment order is route-cache order, not link order).
func (s *Simulator) finishSwap() {
	stranded := s.strandBuf[:0]
	for _, q := range s.unserved {
		if s.queueList[q].depth() > 0 && len(s.linkCellsQ[q]) == 0 {
			stranded = append(stranded, q)
		}
	}
	s.unserved = s.unserved[:0]
	slices.SortFunc(stranded, func(a, b int) int {
		la, lb := s.queueLink[a], s.queueLink[b]
		if c := cmp.Compare(la.Child, lb.Child); c != 0 {
			return c
		}
		return cmp.Compare(la.Direction, lb.Direction)
	})
	stranded = slices.Compact(stranded)
	s.strandBuf = stranded
	if tr := s.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindMacSwap).WithSlot(s.now, obs.None).
			WithDetail(fmt.Sprintf("cells=%d stranded=%d", s.installedCells, len(stranded))))
	}
	for _, ix := range stranded {
		l := s.queueLink[ix]
		q := &s.queueList[ix]
		for _, p := range q.buf[q.head:] {
			s.SwapDrops++
			s.metrics.Inc(obs.Key(obs.MetricSwapDrops))
			s.records[p.rec].Dropped = true
			if tr := s.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindMacSwapDrop).WithNode(int(l.Child)).WithSlot(s.now, obs.None).
					WithDetail(fmt.Sprintf("task %d", p.task)))
			}
		}
		q.reset()
	}
}

// checkAgainstFullInstall holds the installed index against a full install
// of sched built from scratch: the same cell list in every slot, the same
// slots per queue (as multisets), the same activity counts and bits, the
// running cell count, and no non-empty queue left on a cell-less link. It
// returns nil when they agree; it is the harpdebug oracle of PatchSchedule.
func (s *Simulator) checkAgainstFullInstall(sched *schedule.Schedule) error {
	want := make([][]scheduledCell, s.frame.Slots)
	wantQ := make([][]int, len(s.queueList))
	for _, l := range sched.Links() {
		q, ok := s.queueIx[l]
		if !ok {
			return fmt.Errorf("sim: scheduled link %v has no queue", l)
		}
		sc := scheduledCell{link: l, q: q}
		sc.sender, sc.receiver, sc.err = s.endpointsOf(l)
		if sc.err == nil {
			sc.sIx, sc.rIx = -1, -1 // a node the install never indexed
			if ix, ok := s.nodeIx[sc.sender]; ok {
				sc.sIx = ix
			}
			if ix, ok := s.nodeIx[sc.receiver]; ok {
				sc.rIx = ix
			}
		}
		for _, c := range sched.LinkCells(l) {
			sc.cell = c
			want[c.Slot] = insertCell(want[c.Slot], sc)
			wantQ[q] = append(wantQ[q], c.Slot)
		}
	}
	if got, total := s.installedCells, sched.TotalCells(); got != total {
		return fmt.Errorf("sim: running cell count %d, schedule holds %d", got, total)
	}
	for sif := range want {
		got := s.cellsBySlot[sif]
		if len(got) != len(want[sif]) {
			return fmt.Errorf("sim: slot %d holds %d cells, full install %d", sif, len(got), len(want[sif]))
		}
		for i := range got {
			if !sameEntry(got[i], want[sif][i]) {
				return fmt.Errorf("sim: slot %d entry %d is %+v, full install %+v", sif, i, got[i], want[sif][i])
			}
		}
	}
	busy := make([]int, s.frame.Slots)
	for q := range s.queueList {
		got := slices.Clone(s.linkCellsQ[q])
		slices.Sort(got)
		slices.Sort(wantQ[q])
		if !slices.Equal(got, wantQ[q]) {
			return fmt.Errorf("sim: queue of %v lists slots %v, full install %v", s.queueLink[q], got, wantQ[q])
		}
		if s.queueList[q].depth() == 0 {
			continue
		}
		if len(got) == 0 {
			return fmt.Errorf("sim: %d packets stranded on unserved %v", s.queueList[q].depth(), s.queueLink[q])
		}
		for _, sif := range got {
			busy[sif]++
		}
	}
	for sif, n := range busy {
		if s.busyCount[sif] != n || bitset.Get(s.busyBits, sif) != (n > 0) {
			return fmt.Errorf("sim: slot %d busy count %d (bit %v), full install %d",
				sif, s.busyCount[sif], bitset.Get(s.busyBits, sif), n)
		}
	}
	return nil
}

// sameEntry compares two index entries, errors by message.
func sameEntry(a, b scheduledCell) bool {
	if (a.err == nil) != (b.err == nil) || a.err != nil && a.err.Error() != b.err.Error() {
		return false
	}
	a.err, b.err = nil, nil
	return a == b
}
