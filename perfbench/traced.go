package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// tracedIteration is one traced pass with its spans folded. Only the
// latest pass keeps its tracer and stack; earlier ones keep the folded
// figures, so a run's memory does not grow with its pass count.
type tracedIteration struct {
	it          *iteration
	tr          *tracer
	comp        *composed
	layers      [numLayers]layerStats
	phases      [numPhases][numLayers]int64
	wall        int64 // ns of set-up plus timed phase (the checks between are excluded)
	windows     int
	executed    int
	commitShare float64 // commit time over the timed phase
	gcCPU       [numPhases]float64
	gcAlloc     [numPhases]float64
	seed        int64 // the pass's input seed
}

func newTracedIteration(it *iteration, tr *tracer, seed int64) *tracedIteration {
	ti := &tracedIteration{it: it, tr: tr, comp: it.stack.(*composed), seed: seed,
		wall: (it.setup + it.timed).Nanoseconds(), gcCPU: tr.gcCPU, gcAlloc: tr.gcAlloc}
	ti.comp.collect()
	ti.layers, ti.phases = tr.aggregate()
	ti.windows = ti.layers[layerWindow].calls
	ti.executed = ti.comp.mac.ExecutedSlots()
	var run, commit int64
	for l := layer(0); l < numLayers; l++ {
		run += ti.phases[phaseRun][l]
	}
	for _, sp := range tr.spans {
		if sp.layer == layerCommit && sp.parent >= 0 {
			commit += sp.end - sp.start
		}
	}
	ti.commitShare = float64(commit) / float64(run+commit)
	return ti
}

// release drops the pass's tracer and stack once a later pass exists.
func (ti *tracedIteration) release() { ti.tr, ti.comp, ti.it.stack = nil, nil, nil }

// runTraced alternates untraced (cosim.New) and traced (composed) passes
// until the deadline. Each traced pass must reproduce the untraced
// fingerprint exactly, so the per-layer numbers describe the same
// program. It reports the per-layer metrics, prints the phase table of
// the last traced pass and the unit costs measured on the workload's own
// inputs, and writes the last pass's spans.
func runTraced(s spec, seed int64, deadline time.Duration, spansDir string) (*result, error) {
	res := &result{}
	var plain []float64
	var traced []*tracedIteration
	start := time.Now()
	for i := 0; len(traced) < 2 || time.Since(start) < deadline; i++ {
		vseed := variantSeed(seed, i%s.variants)
		u, err := runIteration(s, vseed, nil)
		if err != nil {
			return nil, err
		}
		res.absorb(u)
		if i == 0 {
			checkFingerprint(res, s, seed, u.fp)
		}
		plain = append(plain, (u.setup + u.timed).Seconds())

		tr := newTracer()
		it, err := runIteration(s, vseed, tr)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		res.absorb(it)
		res.attempted++
		if !sameFingerprint(it.fp, u.fp) {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("input seed %d: traced composition's fingerprint differs from cosim's", vseed))
		}
		if n := len(traced); n > 0 {
			traced[n-1].release()
		}
		traced = append(traced, newTracedIteration(it, tr, vseed))
	}
	// The first traced pass warms up; the rest are measured.
	traced = traced[1:]
	last := traced[len(traced)-1]
	perLayer(res, s, traced, plain)
	printPhaseTable(last)
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.spans.tsv.gz", s.name, last.seed))
		if err := last.tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Println("spans written to", path)
	}
	return res, nil
}

// medianOf takes one value per traced pass and returns the median.
func medianOf(ts []*tracedIteration, f func(*tracedIteration) float64) float64 {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = f(t)
	}
	return median(v)
}

// medianCall is the median span duration of a layer's calls, pooled over
// every measured pass.
func medianCall(ts []*tracedIteration, l layer) float64 {
	var v []float64
	for _, t := range ts {
		for _, d := range t.layers[l].durations {
			v = append(v, float64(d))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func perCall(total int64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls)
}

// perLayer computes the per-layer metrics, in BENCHMARK.json order.
func perLayer(res *result, s spec, ts []*tracedIteration, plain []float64) {
	last := ts[len(ts)-1]
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	res.add("topology.generate_s", "s", medianOf(ts, func(t *tracedIteration) float64 { return sec(t.layers[layerGenerate].total) }))
	res.add("agent.deploy_s", "s", medianOf(ts, func(t *tracedIteration) float64 { return sec(t.layers[layerDeploy].total) }))
	res.add("agent.handle_calls", "count", float64(last.layers[layerHandle].calls))
	res.add("agent.handle_self_s", "s", medianOf(ts, func(t *tracedIteration) float64 { return sec(t.layers[layerHandle].self) }))
	res.add("agent.handle_ns", "ns", medianOf(ts, func(t *tracedIteration) float64 {
		return perCall(t.layers[layerHandle].self, t.layers[layerHandle].calls)
	}))
	res.add("agent.validate_ms", "ms", medianCall(ts, layerValidate)/1e6)
	res.add("agent.build_schedule_ms", "ms", medianCall(ts, layerBuild)/1e6)
	res.add("transport.static_run_s", "s", medianOf(ts, func(t *tracedIteration) float64 { return sec(t.layers[layerStaticRun].self) }))
	res.add("transport.send_calls", "count", float64(last.layers[layerSend].calls))
	res.add("transport.send_self_ns", "ns", medianOf(ts, func(t *tracedIteration) float64 {
		return perCall(t.layers[layerSend].self, t.layers[layerSend].calls)
	}))
	c := last.comp
	delivered := float64(c.delivered)
	res.add("transport.delivered", "count", delivered)
	res.add("transport.retransmits", "count", float64(c.totals.Retransmissions))
	res.add("transport.dup_suppressed", "count", float64(c.totals.DuplicatesSuppressed))
	res.add("transport.giveups", "count", float64(c.totals.GiveUps))
	res.add("transport.useful_ratio", "ratio", delivered/(delivered+float64(c.totals.Retransmissions)))
	res.add("vclock.events", "count", float64(c.clock.Dispatched()))
	res.add("sim.run_self_s", "s", medianOf(ts, func(t *tracedIteration) float64 { return sec(t.layers[layerSimRun].self) }))
	executed := c.mac.ExecutedSlots()
	res.add("sim.executed_slots", "count", float64(executed))
	res.add("sim.executed_share", "ratio", float64(executed)/float64(c.mac.Now()))
	res.add("sim.slot_ns", "ns", medianOf(ts, func(t *tracedIteration) float64 {
		return perCall(t.layers[layerSimRun].self, t.executed)
	}))
	res.add("sim.set_schedule_ms", "ms", medianCall(ts, layerSetSchedule)/1e6)
	res.add("cosim.commit_ms", "ms", medianCall(ts, layerCommit)/1e6)
	res.add("cosim.commit_share", "ratio", medianOf(ts, func(t *tracedIteration) float64 { return t.commitShare }))
	res.add("obs.windows", "count", float64(last.windows))
	for p := phase(0); p < numPhases; p++ {
		res.add("gc."+phaseNames[p]+"_alloc_mb", "MB", medianOf(ts, func(t *tracedIteration) float64 { return t.gcAlloc[p] / 1e6 }))
	}
	res.add("gc.cpu_s", "s", medianOf(ts, func(t *tracedIteration) float64 {
		return t.gcCPU[phaseSetup] + t.gcCPU[phaseRun] + t.gcCPU[phaseCommit]
	}))
	res.add("trace.overhead_ratio", "ratio", medianOf(ts, func(t *tracedIteration) float64 {
		return (t.it.setup + t.it.timed).Seconds()
	})/median(plain))

	units := unitCosts(res, s, last)
	for _, u := range units {
		if u.metric != "" {
			res.add(u.metric, u.unit, u.scale*u.nsPerOp)
		}
	}
	res.add("coap.allocs_per_op", "count", units[0].allocsPerOp+units[1].allocsPerOp)
	fmt.Println("unit costs on the workload's own inputs:")
	for _, u := range units {
		fmt.Printf("  %-34s %14.1f ns/op %10.2f allocs/op  (%d ops)\n", u.name, u.nsPerOp, u.allocsPerOp, u.ops)
	}
	printTable(res.metrics)
}

// printPhaseTable prints a traced pass's self time by phase and layer.
// The rows sum to the pass's wall time (set-up plus timed phase); time no
// span covers (the benchmark's own bookkeeping between calls, and clock
// events the benchmark cannot wrap outside a Run span) is shown as the
// unattributed remainder.
func printPhaseTable(t *tracedIteration) {
	fmt.Printf("phase table (last traced pass, wall %.4f s):\n", float64(t.wall)/1e9)
	var sum int64
	for p := phase(0); p < numPhases; p++ {
		for l := layer(0); l < numLayers; l++ {
			if d := t.phases[p][l]; d > 0 {
				sum += d
				fmt.Printf("  %-7s %-22s %10.4f s %6.1f%%\n", phaseNames[p], layerNames[l], float64(d)/1e9, 100*float64(d)/float64(t.wall))
			}
		}
		fmt.Printf("  %-7s gc: cpu %.4f s, allocated %.1f MB\n", phaseNames[p], t.gcCPU[p], t.gcAlloc[p]/1e6)
	}
	rest := t.wall - sum
	fmt.Printf("  %-30s %10.4f s %6.1f%%\n", "unattributed", float64(rest)/1e9, 100*float64(rest)/float64(t.wall))
}

// unitCost is one layer unit of work measured in isolation.
type unitCost struct {
	name, metric, unit string
	scale              float64 // ns → the metric's unit
	nsPerOp            float64
	allocsPerOp        float64
	ops                int
}

var allocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func objects() uint64 {
	metrics.Read(allocObjects)
	return allocObjects[0].Value.Uint64()
}

// measure runs op in doubling batches until at least budget has passed;
// op performs n units of work per call and returns n.
func measure(name, metric, unit string, scale float64, budget time.Duration, op func() int) unitCost {
	runtime.GC()
	op() // warm
	ops := 0
	o0 := objects()
	t0 := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			ops += op()
		}
		if time.Since(t0) >= budget {
			break
		}
	}
	elapsed := time.Since(t0)
	return unitCost{name: name, metric: metric, unit: unit, scale: scale,
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		allocsPerOp: float64(objects()-o0) / float64(ops), ops: ops}
}

var sinkMsg coap.Message

// unitCosts measures each layer's unit of work on the workload's own
// inputs: the messages the wrapper captured, the clock's observed queue
// depth, the registry's key set, the final tree and fleet, and a
// centralized plan of the same tree and demand. The first two entries
// are the coap encode and decode. A plan that cannot be built counts as a
// failed check.
func unitCosts(res *result, s spec, t *tracedIteration) []unitCost {
	const budget = 100 * time.Millisecond
	c := t.comp
	var msgs []coap.Message
	for _, w := range t.tr.wires {
		if m, err := coap.Decode(w); err == nil {
			msgs = append(msgs, m)
		}
	}
	buf := make([]byte, 0, 256)
	out := []unitCost{
		measure("coap AppendTo", "coap.encode_ns", "ns", 1, budget, func() int {
			for _, m := range msgs {
				buf, _ = m.AppendTo(buf[:0]) // captured messages encoded once already
			}
			return len(msgs)
		}),
		measure("coap Decode", "coap.decode_ns", "ns", 1, budget, func() int {
			for _, w := range t.tr.wires {
				sinkMsg, _ = coap.Decode(w) // captured wires decoded once already
			}
			return len(t.tr.wires)
		}),
	}

	depths := append([]int(nil), t.tr.depths...)
	sort.Ints(depths)
	depth := max(1, rank(depths, 0.5))
	clock := vclock.New()
	noop := func() {}
	for i := 0; i < depth; i++ {
		clock.Schedule(float64(i), noop)
	}
	step := float64(depth)
	out = append(out, measure(fmt.Sprintf("vclock Schedule+Step (depth %d)", depth), "vclock.step_ns", "ns", 1, budget, func() int {
		clock.Schedule(clock.Now()+step, noop)
		clock.Step()
		return 1
	}))

	keys := make([]obs.MetricKey, 0, len(c.keys))
	for k := range c.keys {
		keys = append(keys, k)
	}
	reg := obs.NewRegistry()
	out = append(out, measure(fmt.Sprintf("obs Registry.Add (%d keys)", len(keys)), "obs.add_ns", "ns", 1, budget, func() int {
		for _, k := range keys {
			reg.Add(k, 1)
		}
		return len(keys)
	}))

	tree := c.fleet.Tree
	out = append(out, measure(fmt.Sprintf("topology Tree.Nodes (%d nodes)", tree.Len()), "topology.nodes_us", "us", 1e-3, budget, func() int {
		_ = tree.Nodes()
		return 1
	}))
	out = append(out, measure("agent Fleet.BuildSchedule", "", "", 0, budget, func() int {
		_, _ = c.fleet.BuildSchedule() // built without error at every commit
		return 1
	}))
	// The window hook's two parts, measured directly: the clock fires the
	// hook only when control traffic crosses a slotframe boundary, which
	// the MAC-only stretches of deploy-50k and mac-testbed50 never do.
	out = append(out, measure("agent Fleet.PendingAdjustments", "agent.pending_scan_us", "us", 1e-3, budget, func() int {
		_ = c.fleet.PendingAdjustments()
		return 1
	}))
	winReg := obs.NewRegistry()
	window := int64(0)
	out = append(out, measure("obs window series Set x2", "obs.window_us", "us", 1e-3, budget, func() int {
		winReg.Series(obs.Key(obs.MetricWinQueueDepth), c.frame).Set(window, window)
		winReg.Series(obs.Key(obs.MetricWinPending), c.frame).Set(window, window)
		window = (window + 1) % 4096
		return 1
	}))

	// A centralized plan of a fresh copy of the workload's inputs: the
	// fleet's own tree has been rewired by healing.
	in, err := makeInputs(s, t.seed)
	var demand *traffic.Demand
	if err == nil {
		if demand = in.cfg.Demand; demand == nil {
			demand, err = traffic.Compute(in.cfg.Tree, in.cfg.Tasks)
		}
	}
	if err == nil {
		_, err = core.NewPlan(in.cfg.Tree, in.cfg.Frame, demand, core.Options{})
	}
	if err != nil {
		res.attempted++
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf("core.NewPlan on the workload's inputs: %v", err))
		return append(out, unitCost{name: "core NewPlan", metric: "core.new_plan_ms", unit: "ms"})
	}
	out = append(out, measure("core NewPlan", "core.new_plan_ms", "ms", 1e-6, budget, func() int {
		_, _ = core.NewPlan(in.cfg.Tree, in.cfg.Frame, demand, core.Options{}) // succeeded on these inputs above
		return 1
	}))
	return out
}
