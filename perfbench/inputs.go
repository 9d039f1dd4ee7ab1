package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// spec is one workload's fixed shape. Everything random about a run —
// tree, tasks, adjustment sequence, crash script — is drawn from the
// seed by makeInputs; the library only ever sees the drawn inputs.
type spec struct {
	name string
	// nodes > 0 generates a GenerateScale tree of that size; 0 uses the
	// paper's fixed 50-node testbed.
	nodes int
	// tasks sparse echo tasks on generated trees (rate 1 each).
	tasks int
	// slotframes of MAC stepping after set-up (deploy, mac), timed in
	// operations of opSlotframes slotframes each.
	slotframes, opSlotframes int
	// changes is the length of the closed-loop adjustment sequence
	// (adjust); each change is one timed operation.
	changes int
	// heal runs the chaos storm with the failure detector.
	heal bool
	// lossy data plane (mac).
	pdr     float64
	retries int
	// variants is how many distinct inputs one run cycles through (see
	// variantSeed), so a run's figures average over several trees instead
	// of resting on one draw.
	variants int
}

var specs = []spec{
	{name: "deploy-50k", nodes: 50_000, tasks: 32, slotframes: 512, opSlotframes: 32, variants: 16},
	{name: "adjust-10k", nodes: 10_000, tasks: 32, changes: 60, variants: 16},
	{name: "mac-testbed50", slotframes: 4000, opSlotframes: 40, pdr: 0.9, retries: 3, variants: 32},
	{name: "heal-1k", nodes: 1_000, tasks: 32, heal: true, variants: 4},
}

// variantSeed is the input seed of variant v of a run at seed: iteration
// i of a run uses variant i mod spec.variants.
func variantSeed(seed int64, v int) int64 { return seed*1000 + int64(v) }

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Chaos storm shape (heal): the committed 1000-node scenario — 12% of the
// fleet crashes over two slotframes from slotframe 1, half of it for
// good, the rest restarting after 7 slotframes; 5 parent links flap for
// one slotframe each. The storm is observed for 25 slotframes, then a
// no-op adjustment commits the healed schedule over a 100-slotframe drain.
const (
	crashFraction     = 0.12
	permanentFraction = 0.5
	linkFlaps         = 5
	stormSlotframes   = 25
	drainSlotframes   = 100
)

// change is one closed-loop traffic change: new cell demands for 1–4
// task links, raises and lowerings mixed.
type change struct {
	links []topology.Link
	cells []int
}

// crash is one scripted outage; restartAt < 0 marks a permanent victim.
type crash struct {
	node               topology.NodeID
	crashAt, restartAt int
}

// flap takes node's parent link down over [downAt, upAt).
type flap struct {
	node         topology.NodeID
	downAt, upAt int
}

// inputs is everything one iteration of a workload feeds the library.
type inputs struct {
	cfg     cosim.Config
	changes []change
	crashes []crash
	flaps   []flap
}

// rngFor derives an independent generator per input purpose.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// scaleFrame is the scale study's slotframe: 997 slots (960 data) on the
// paper's 16 channels.
func scaleFrame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 997, Channels: 16, DataSlots: 960, SlotDuration: 10 * time.Millisecond}
}

// makeInputs draws a workload's inputs from the seed. The same seed gives
// the same inputs.
func makeInputs(s spec, seed int64) (*inputs, error) {
	if s.nodes == 0 {
		return testbedInputs(s, seed)
	}
	rng := rngFor(seed, 1)
	tree, err := topology.GenerateScale(topology.GenSpec{Nodes: s.nodes, Layers: 8, MaxChildren: 8}, rng)
	if err != nil {
		return nil, err
	}
	nodes := tree.Nodes()
	tasks := traffic.NewSet()
	var sources []topology.NodeID
	seen := make(map[topology.NodeID]bool)
	for id := traffic.TaskID(0); len(sources) < s.tasks; id++ {
		src := nodes[1+rng.Intn(len(nodes)-1)]
		if seen[src] {
			continue
		}
		seen[src] = true
		sources = append(sources, src)
		if err := tasks.Add(traffic.Task{ID: id, Source: src, Actuator: src, Rate: 1}); err != nil {
			return nil, err
		}
	}
	in := &inputs{cfg: cosim.Config{
		Tree: tree, Frame: scaleFrame(), Tasks: tasks,
		PDR: 1, Seed: seed, RootGap: 2, Reliable: s.heal,
	}}
	if s.changes > 0 {
		demand, err := traffic.Compute(tree, tasks)
		if err != nil {
			return nil, err
		}
		in.changes = changeSequence(rngFor(seed, 2), sources, demand, s.changes)
	}
	if s.heal {
		in.crashes, in.flaps = crashScript(rngFor(seed, 3), nodes, in.cfg.Frame.Slots)
	}
	return in, nil
}

// testbedInputs is the Fig. 7(c)/Fig. 9 data plane: the 50-node testbed
// with one echo task per node at rate 1, each link provisioned one spare
// cell as Fig. 9 does (two spares no longer fit the frame). At PDR 0.9 a
// link with more than 9 cells of demand then serves less than arrives, so
// the links near the gateway run with full queues, retries and overflow
// drops: the MAC's busiest regime. The seed drives the MAC's loss draws
// and the management-cell latencies.
func testbedInputs(s spec, seed int64) (*inputs, error) {
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		return nil, err
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		return nil, err
	}
	cells := make(map[topology.Link]int)
	for _, l := range demand.Links() {
		cells[l] = demand.Cells(l) + 1
	}
	return &inputs{cfg: cosim.Config{
		Tree: tree, Frame: schedule.Testbed(), Tasks: tasks, Demand: traffic.FromCells(cells),
		PDR: s.pdr, MaxRetries: s.retries, Seed: seed,
	}}, nil
}

// maxRaise bounds how far a task link's demand may rise above its
// provisioned value, keeping every change feasible.
const maxRaise = 3

// changeSequence draws n changes over the task sources' uplinks and
// downlinks. A link at its provisioned demand can only rise (escalating
// toward its ancestors when the parent lacks slack); one at the cap can
// only fall (releasing cells); in between the direction is a coin flip.
func changeSequence(rng *rand.Rand, sources []topology.NodeID, demand *traffic.Demand, n int) []change {
	var links []topology.Link
	for _, src := range sources {
		for _, d := range topology.Directions() {
			links = append(links, topology.Link{Child: src, Direction: d})
		}
	}
	base := make([]int, len(links))
	cur := make([]int, len(links))
	for i, l := range links {
		base[i] = demand.Cells(l)
		cur[i] = base[i]
	}
	out := make([]change, n)
	for k := range out {
		for _, i := range rng.Perm(len(links))[:1+rng.Intn(4)] {
			raise := cur[i] == base[i] || (cur[i] < base[i]+maxRaise && rng.Intn(2) == 0)
			if raise {
				cur[i] += 1 + rng.Intn(base[i]+maxRaise-cur[i])
			} else {
				cur[i] = base[i] + rng.Intn(cur[i]-base[i])
			}
			out[k].links = append(out[k].links, links[i])
			out[k].cells = append(out[k].cells, cur[i])
		}
	}
	return out
}

// crashScript draws the storm: victims and link-flap nodes from one
// permutation (so they never coincide), crash instants spread over two
// slotframes from slotframe 1.
func crashScript(rng *rand.Rand, nodes []topology.NodeID, frame int) ([]crash, []flap) {
	eligible := nodes[1:] // every node but the gateway (Nodes is ID-sorted)
	perm := rng.Perm(len(eligible))
	nVictims := int(crashFraction * float64(len(eligible)))
	nPermanent := int(permanentFraction * float64(nVictims))
	crashes := make([]crash, nVictims)
	for k := range crashes {
		c := crash{node: eligible[perm[k]], crashAt: frame + rng.Intn(2*frame), restartAt: -1}
		if k >= nPermanent {
			c.restartAt = c.crashAt + 7*frame
		}
		crashes[k] = c
	}
	flaps := make([]flap, linkFlaps)
	for k := range flaps {
		down := frame + rng.Intn(2*frame)
		flaps[k] = flap{node: eligible[perm[nVictims+k]], downAt: down, upAt: down + frame}
	}
	return crashes, flaps
}
