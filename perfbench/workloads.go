package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/topology"
)

// fingerprint is an iteration's simulated outcome: virtual-time quantities
// only, so it repeats exactly for a seed. A change that only speeds up the
// simulator must leave it identical.
type fingerprint struct {
	StaticSlots float64 `json:"static_slots"`
	StaticMsgs  int     `json:"static_msgs"`
	Events      uint64  `json:"events"`
	SimSlots    int     `json:"sim_slots"`
	Executed    int     `json:"executed_slots"`
	Released    int     `json:"released"`
	Delivered   int     `json:"delivered"`
	Dropped     int     `json:"dropped"`
	Pending     int     `json:"pending"`
	LatencySum  int64   `json:"latency_sum_slots"`
	LatencyP50  int     `json:"latency_p50_slots"`
	LatencyP99  int     `json:"latency_p99_slots"`
	Rejections  int     `json:"rejections"`
	// Commits are [trigger slot, commit slot, messages, PUT /intf,
	// POST /sched, participants] per committed adjustment.
	Commits [][6]int `json:"commits,omitempty"`
	// Heal only.
	Keepalives     int64     `json:"keepalives,omitempty"`
	Deaths         int       `json:"deaths,omitempty"`
	Adoptions      int       `json:"adoptions,omitempty"`
	Readmissions   int       `json:"readmissions,omitempty"`
	Aborts         int       `json:"aborts,omitempty"`
	FalsePositives int       `json:"false_positives,omitempty"`
	Orphans        int       `json:"orphans,omitempty"`
	DetectSf       []float64 `json:"detect_sf,omitempty"`
}

// iteration is one pass of a workload: set-up, then the timed phase.
type iteration struct {
	setup, timed time.Duration
	ops          []time.Duration
	slots        int    // simulated slots advanced in the timed phase
	heapBytes    uint64 // live heap the set-up added
	allocBytes   uint64
	fp           fingerprint
	attempted    int
	failures     []string
	stack        stack // the traced run's stack, kept for its unit costs
	nodes        int
}

func (it *iteration) check(ok bool, format string, args ...any) {
	it.attempted++
	if !ok {
		it.failures = append(it.failures, fmt.Sprintf(format, args...))
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// runIteration runs one pass of workload s at seed. With a tracer it
// drives the composed stack and spans every layer call; without one it
// drives cosim.New. Checks that fail are recorded, not fatal: the
// iteration still reports what it measured. An error means the iteration
// could not complete.
func runIteration(s spec, seed int64, tr *tracer) (*iteration, error) {
	it := &iteration{}
	runtime.GC()
	live0 := heapLive()
	a0 := allocated()
	t0 := time.Now()
	if tr != nil {
		tr.epoch = t0
		tr.openPhase(phaseSetup)
	}

	sp := tr.begin(layerGenerate)
	in, err := makeInputs(s, seed)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var st stack
	if tr == nil {
		st, err = newCosimStack(in.cfg)
	} else {
		st, err = newComposed(in.cfg, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var heal *healRun
	if s.heal {
		sp := tr.begin(layerHeal)
		heal, err = startHeal(st, in)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("self-healing: %w", err)
		}
	}
	it.setup = time.Since(t0)
	a1 := allocated()
	if tr != nil {
		tr.closePhase()
	}

	if tr != nil {
		it.stack = st
	}
	it.nodes = in.cfg.Tree.Len()
	it.fp.StaticSlots = st.Clock().Now()
	it.fp.StaticMsgs = st.Bus().Delivered()
	it.check(invariant.CheckFleet(st.Fleet(), nil) == nil, "fleet invalid after set-up")
	runtime.GC()
	it.heapBytes = heapLive() - live0
	a2 := allocated()
	t2 := time.Now()
	if tr != nil {
		tr.openPhase(phaseRun)
	}
	switch {
	case s.changes > 0:
		err = runChanges(st, in, it)
	case s.heal:
		err = heal.run(st, in, it)
	default:
		for k := 0; k < s.slotframes && err == nil; k += s.opSlotframes {
			err = timedOp(it, func() error { return st.Run(s.opSlotframes * in.cfg.Frame.Slots) })
		}
	}
	it.timed = time.Since(t2)
	it.allocBytes = a1 - a0 + allocated() - a2
	it.slots = st.Sim().Now()
	if tr != nil {
		tr.closePhase()
	}
	if err != nil {
		return nil, err
	}
	finish(st, it)
	if heal != nil {
		heal.report(st, it)
	}
	return it, nil
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func timedOp(it *iteration, op func() error) error {
	t := time.Now()
	err := op()
	it.ops = append(it.ops, time.Since(t))
	return err
}

// maxChangeSlotframes bounds one change's run to quiescence; a change
// still in flight after it counts as not completed.
const maxChangeSlotframes = 200

// runChanges is adjust's closed loop: one client issues a change, runs
// the co-simulation slotframe by slotframe until the change commits, then
// issues the next. Each change is one timed operation.
func runChanges(st stack, in *inputs, it *iteration) error {
	frame := in.cfg.Frame.Slots
	for _, ch := range in.changes {
		done := false
		err := timedOp(it, func() error {
			err := st.Adjust(func(f *agent.Fleet) error {
				for i, l := range ch.links {
					if err := f.RequestLinkDemand(l, ch.cells[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			for k := 0; k < maxChangeSlotframes && !done; k++ {
				if err := st.Run(frame); err != nil {
					return err
				}
				done = st.Quiesced()
			}
			return nil
		})
		if err != nil {
			return err
		}
		it.check(done, "change did not commit within %d slotframes", maxChangeSlotframes)
		if !done {
			return nil
		}
	}
	it.check(len(st.Commits()) == len(in.changes), "%d of %d changes committed", len(st.Commits()), len(in.changes))
	it.check(st.Fleet().Rejections() == 0, "%d adjustment rejections", st.Fleet().Rejections())
	return nil
}

// finish records the fingerprint and runs the checks every workload shares.
func finish(st stack, it *iteration) {
	fp := &it.fp
	clock, fleet, mac := st.Clock(), st.Fleet(), st.Sim()
	fp.Events = clock.Dispatched()
	fp.SimSlots = mac.Now()
	fp.Executed = mac.ExecutedSlots()
	fp.Rejections = fleet.Rejections()
	var lat []int
	for _, r := range mac.Records() {
		fp.Released++
		switch {
		case r.Delivered:
			fp.Delivered++
			lat = append(lat, r.Latency())
			fp.LatencySum += int64(r.Latency())
		case r.Dropped:
			fp.Dropped++
		default:
			fp.Pending++
		}
	}
	sort.Ints(lat)
	fp.LatencyP50 = rank(lat, 0.50)
	fp.LatencyP99 = rank(lat, 0.99)
	for _, c := range st.Commits() {
		fp.Commits = append(fp.Commits, [6]int{c.TriggerSlot, c.CommitSlot, c.Messages, c.Requests, c.ScheduleMessages, c.Participants})
	}
	it.check(fp.Released > 0 && fp.Delivered > 0, "no data packet delivered")
	it.check(fp.Pending == mac.PendingPackets(), "%d records neither delivered nor dropped, %d packets queued", fp.Pending, mac.PendingPackets())
	it.check(st.Quiesced(), "co-simulation not quiesced at the end")
	it.check(invariant.CheckFleet(fleet, nil) == nil, "fleet invalid at the end")
}

// rank is the nearest-rank percentile of sorted values (0 when empty).
func rank[T int | int64 | float64 | time.Duration](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(p*float64(len(sorted))))-1)]
}

// healRun is the chaos storm's runtime state.
type healRun struct {
	det        *agent.Detector
	crashClock map[topology.NodeID]float64
}

// detectorConfig is the committed chaos scenario's detector: sweep every
// slotframe, suspect after 2, dead after 4, watchdog after 80.
func detectorConfig(frame int, seed int64) agent.DetectorConfig {
	sf := float64(frame)
	return agent.DetectorConfig{Interval: sf, SuspectAfter: 2 * sf, DeadAfter: 4 * sf, AbortAfter: 80 * sf, Seed: seed}
}

// startHeal attaches the failure detector and plants the crash script.
func startHeal(st stack, in *inputs) (*healRun, error) {
	det, err := st.EnableSelfHealing(detectorConfig(in.cfg.Frame.Slots, in.cfg.Seed), in.cfg.Tasks)
	if err != nil {
		return nil, err
	}
	h := &healRun{det: det, crashClock: make(map[topology.NodeID]float64)}
	bus := st.Bus()
	for _, c := range in.crashes {
		st.At(c.crashAt, func() {
			h.crashClock[c.node] = st.Clock().Now()
			bus.Crash(c.node)
		})
		if c.restartAt >= 0 {
			st.At(c.restartAt, func() { bus.Restart(c.node) })
		}
	}
	for _, f := range in.flaps {
		parent := topology.None
		st.At(f.downAt, func() {
			p, err := st.Fleet().Tree.Parent(f.node)
			if err != nil || p == topology.None {
				return
			}
			parent = p
			bus.SetLinkDown(f.node, p)
		})
		st.At(f.upAt, func() {
			if parent != topology.None {
				bus.SetLinkUp(f.node, parent)
			}
		})
	}
	return h, nil
}

// run drives the storm, then commits the healed schedule with a no-op
// adjustment over the drain. Every slotframe is one timed operation.
func (h *healRun) run(st stack, in *inputs, it *iteration) error {
	frame := in.cfg.Frame.Slots
	for k := 0; k < stormSlotframes; k++ {
		if err := timedOp(it, func() error { return st.Run(frame) }); err != nil {
			return err
		}
	}
	if err := h.det.Err(); err != nil {
		return fmt.Errorf("detector: %w", err)
	}
	// Adjust resets the transport counters: read the probe count first.
	it.fp.Keepalives = st.Bus().Metrics().Counter(obs.Key(obs.MetricKeepalives))
	if err := st.Adjust(func(*agent.Fleet) error { return nil }); err != nil {
		return err
	}
	for k := 0; k < drainSlotframes; k++ {
		if err := timedOp(it, func() error { return st.Run(frame) }); err != nil {
			return err
		}
	}
	return h.det.Err()
}

// report records the storm's outcome and checks the heal.
func (h *healRun) report(st stack, it *iteration) {
	fp := &it.fp
	frame := float64(st.Sim().Frame().Slots)
	fp.Deaths = len(h.det.Deaths)
	fp.Adoptions = len(h.det.Adoptions)
	fp.Readmissions = h.det.Readmissions
	fp.Aborts = h.det.Aborts
	for _, d := range h.det.Deaths {
		crashAt, victim := h.crashClock[d.Node]
		if !victim {
			fp.FalsePositives++
			continue
		}
		fp.DetectSf = append(fp.DetectSf, (d.DeclaredAt-crashAt)/frame)
	}
	sort.Float64s(fp.DetectSf)
	fp.Orphans = len(invariant.Orphans(st.Fleet().Tree, h.det.DeadOrCrashed))
	it.check(fp.Orphans == 0, "%d orphans remain after the heal", fp.Orphans)
	it.check(fp.FalsePositives == 0, "%d false-positive deaths", fp.FalsePositives)
	it.check(fp.Deaths > 0 && fp.Adoptions > 0, "storm caused no death or adoption")
}
