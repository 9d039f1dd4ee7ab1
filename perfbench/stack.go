package main

import (
	"errors"
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/proto"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
	"github.com/harpnet/harp/internal/vclock"
)

// stack is the co-simulation a workload drives. cosimStack is the library's
// own cosim.CoSim (the measured, untraced run); composed rebuilds the same
// stack from the layers' public calls so every layer boundary can be timed
// from outside (the traced run).
type stack interface {
	At(slot int, fn func())
	Adjust(fn func(*agent.Fleet) error) error
	Run(slots int) error
	Quiesced() bool
	Commits() []cosim.Commit
	Clock() *vclock.Clock
	Bus() *transport.Bus
	Fleet() *agent.Fleet
	Sim() *sim.Simulator
	EnableSelfHealing(cfg agent.DetectorConfig, tasks *traffic.Set) (*agent.Detector, error)
}

type cosimStack struct{ cs *cosim.CoSim }

func newCosimStack(cfg cosim.Config) (stack, error) {
	cs, err := cosim.New(cfg)
	if err != nil {
		return nil, err
	}
	return cosimStack{cs}, nil
}

func (s cosimStack) At(slot int, fn func())                   { s.cs.At(slot, func(*cosim.CoSim) { fn() }) }
func (s cosimStack) Adjust(fn func(*agent.Fleet) error) error { return s.cs.Adjust(fn) }
func (s cosimStack) Run(slots int) error                      { return s.cs.Run(slots) }
func (s cosimStack) Quiesced() bool                           { return s.cs.Quiesced() }
func (s cosimStack) Commits() []cosim.Commit                  { return s.cs.Commits }
func (s cosimStack) Clock() *vclock.Clock                     { return s.cs.Clock }
func (s cosimStack) Bus() *transport.Bus                      { return s.cs.Bus }
func (s cosimStack) Fleet() *agent.Fleet                      { return s.cs.Fleet }
func (s cosimStack) Sim() *sim.Simulator                      { return s.cs.Sim }
func (s cosimStack) EnableSelfHealing(cfg agent.DetectorConfig, tasks *traffic.Set) (*agent.Detector, error) {
	return s.cs.EnableSelfHealing(cfg, tasks)
}

// composed is cosim.New, cosim's commit path and its window hook rebuilt
// from public calls (no sharding, tracing or fault injection — no workload
// uses them), with a timing wrapper handed to agent.Deploy as its Network.
// At the same inputs it dispatches exactly the events cosim does; the
// traced run checks that on every iteration by comparing fingerprints.
type composed struct {
	tr    *tracer
	net   *tracedNet
	clock *vclock.Clock
	bus   *transport.Bus
	fleet *agent.Fleet
	mac   *sim.Simulator
	frame int

	pending bool
	trigger int
	commits []cosim.Commit
	// totals accumulates transport counters across the registry resets
	// each Adjust makes.
	totals transport.FaultStats
	// delivered accumulates Bus.Delivered across resets.
	delivered int
	// keys collects the registry's counter keys before each reset, the
	// key set obs.add_ns is measured over.
	keys map[obs.MetricKey]bool
	err  error
}

func newComposed(cfg cosim.Config, tr *tracer) (*composed, error) {
	demand := cfg.Demand
	if demand == nil {
		var err error
		if demand, err = traffic.Compute(cfg.Tree, cfg.Tasks); err != nil {
			return nil, err
		}
	}
	clock := vclock.New()
	bus, err := transport.NewBusOnClock(clock, cfg.Frame.Slots, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Reliable {
		bus.EnableReliability(cfg.Seed)
	}
	c := &composed{tr: tr, net: &tracedNet{bus: bus, tr: tr}, clock: clock, bus: bus,
		frame: cfg.Frame.Slots, keys: make(map[obs.MetricKey]bool)}

	sp := tr.begin(layerDeploy)
	c.fleet, err = agent.Deploy(cfg.Tree, cfg.Frame, demand, c.net,
		agent.WithRootGap(cfg.RootGap), agent.WithMetrics(bus.Metrics()))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(layerStart)
	c.fleet.Start()
	tr.end(sp)
	sp = tr.begin(layerStaticRun)
	_, err = bus.Run()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("static phase: %w", err)
	}
	if g := bus.Faults().GiveUps; g > 0 {
		return nil, fmt.Errorf("static phase gave up %d exchanges", g)
	}
	sp = tr.begin(layerSimNew)
	c.mac, err = sim.New(sim.Config{
		Tree: cfg.Tree, Frame: cfg.Frame, Tasks: cfg.Tasks,
		PDR: cfg.PDR, MaxQueue: cfg.MaxQueue, MaxRetries: cfg.MaxRetries, Seed: cfg.Seed,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.mac.SetMetrics(bus.Metrics())
	if err := c.commit(); err != nil {
		return nil, fmt.Errorf("static phase: %w", err)
	}
	if err := c.mac.BindClock(clock); err != nil {
		return nil, err
	}
	c.fleet.BindVirtualTime(clock.Now)
	clock.SetWindowHook(float64(cfg.Frame.Slots), c.onWindow)
	c.mac.EachSlotDemand(
		func(*sim.Simulator) { c.observe() },
		func(next int) (int, bool) { return next, c.pending },
	)
	return c, nil
}

// commit is the commit path: validate the fleet, build its schedule and
// hot-swap it into the MAC.
func (c *composed) commit() error {
	sp := c.tr.begin(layerCommit)
	defer c.tr.end(sp)
	v := c.tr.begin(layerValidate)
	err := c.fleet.Validate()
	c.tr.end(v)
	if err != nil {
		return fmt.Errorf("fleet invalid at commit: %w", err)
	}
	b := c.tr.begin(layerBuild)
	sched, err := c.fleet.BuildSchedule()
	c.tr.end(b)
	if err != nil {
		return err
	}
	s := c.tr.begin(layerSetSchedule)
	c.mac.SetSchedule(sched)
	c.tr.end(s)
	return nil
}

// observe mirrors cosim's per-slot quiescence check.
func (c *composed) observe() {
	if !c.pending || c.bus.Pending() != 0 {
		return
	}
	c.pending = false
	if err := c.commit(); err != nil {
		c.err = errors.Join(c.err, err)
		return
	}
	cm := cosim.Commit{
		TriggerSlot:      c.trigger,
		CommitSlot:       c.mac.Now(),
		Messages:         c.bus.Delivered(),
		Requests:         c.bus.Count(coap.PUT, proto.PathInterface),
		ScheduleMessages: c.bus.Count(coap.POST, proto.PathSchedule),
		Participants:     c.bus.ParticipantCount(),
	}
	c.commits = append(c.commits, cm)
	m := c.bus.Metrics()
	m.Observe(obs.Key(obs.MetricDisruptionSlots), float64(cm.CommitSlot-cm.TriggerSlot))
	m.Dist(obs.Key(obs.MetricDisruptionMs)).Observe(int64(cm.CommitSlot-cm.TriggerSlot) * 1000)
}

// onWindow mirrors cosim's slotframe-window telemetry hook.
func (c *composed) onWindow(window int64, _ float64) {
	sp := c.tr.begin(layerWindow)
	defer c.tr.end(sp)
	m := c.bus.Metrics()
	m.Series(obs.Key(obs.MetricWinQueueDepth), c.frame).Set(window-1, int64(c.mac.PendingPackets()))
	p := c.tr.begin(layerPendingScan)
	pending := c.fleet.PendingAdjustments()
	c.tr.end(p)
	m.Series(obs.Key(obs.MetricWinPending), c.frame).Set(window-1, int64(pending))
}

// collect folds the registry's counters into the run totals before the
// registry is reset (and once more at the end of a run).
func (c *composed) collect() {
	f := c.bus.Faults()
	c.totals.Retransmissions += f.Retransmissions
	c.totals.DuplicatesSuppressed += f.DuplicatesSuppressed
	c.totals.GiveUps += f.GiveUps
	c.delivered += c.bus.Delivered()
	for _, k := range c.bus.Metrics().CounterKeys() {
		c.keys[k] = true
	}
}

func (c *composed) Adjust(fn func(*agent.Fleet) error) error {
	if c.pending {
		return errors.New("adjustment already in flight")
	}
	c.collect()
	c.bus.ResetCounters()
	c.trigger = c.mac.Now()
	sp := c.tr.begin(layerRequest)
	err := fn(c.fleet)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	c.pending = true
	return nil
}

func (c *composed) At(slot int, fn func()) { c.mac.At(slot, func(*sim.Simulator) { fn() }) }

func (c *composed) Run(slots int) error {
	sp := c.tr.begin(layerSimRun)
	err := c.mac.Run(slots)
	c.tr.end(sp)
	return errors.Join(err, c.bus.Err(), c.err)
}

func (c *composed) Quiesced() bool          { return !c.pending }
func (c *composed) Commits() []cosim.Commit { return c.commits }
func (c *composed) Clock() *vclock.Clock    { return c.clock }
func (c *composed) Bus() *transport.Bus     { return c.bus }
func (c *composed) Fleet() *agent.Fleet     { return c.fleet }
func (c *composed) Sim() *sim.Simulator     { return c.mac }
func (c *composed) EnableSelfHealing(cfg agent.DetectorConfig, tasks *traffic.Set) (*agent.Detector, error) {
	tree := c.fleet.Tree
	cfg.Demand = func(moved, newParent topology.NodeID) *traffic.Demand {
		t := tree
		if moved != topology.None {
			t = tree.Clone()
			if err := t.Reparent(moved, newParent); err != nil {
				t = tree
			}
		}
		d, err := traffic.Compute(t, tasks)
		if err != nil {
			return &traffic.Demand{}
		}
		return d
	}
	cfg.Metrics = c.bus.Metrics()
	det, err := agent.NewDetector(c.fleet, c.net, c.clock, cfg)
	if err != nil {
		return nil, err
	}
	det.Start()
	return det, nil
}

// tracedNet is the Network agent.Deploy and the failure detector see: it
// forwards every call to the Bus, spanning sends (transport) and wrapping
// each registered handler so deliveries are spanned too (agent).
type tracedNet struct {
	bus *transport.Bus
	tr  *tracer
}

func (n *tracedNet) Send(from, to topology.NodeID, msg coap.Message) error {
	n.tr.capture(msg)
	n.tr.sampleDepth(n.bus.Clock().Pending())
	sp := n.tr.begin(layerSend)
	err := n.bus.Send(from, to, msg)
	n.tr.end(sp)
	return err
}

func (n *tracedNet) SendBackground(from, to topology.NodeID, msg coap.Message) error {
	n.tr.capture(msg)
	n.tr.sampleDepth(n.bus.Clock().Pending())
	sp := n.tr.begin(layerSend)
	err := n.bus.SendBackground(from, to, msg)
	n.tr.end(sp)
	return err
}

func (n *tracedNet) Crashed(id topology.NodeID) bool { return n.bus.Crashed(id) }

func (n *tracedNet) Register(id topology.NodeID, h transport.Handler) {
	n.bus.Register(id, &tracedHandler{h: h, tr: n.tr})
}

// tracedHandler spans one delivery into an agent. It always implements
// transport.FailureHandler and forwards only when the agent does, which
// is what the Bus would have done with the bare handler.
type tracedHandler struct {
	h  transport.Handler
	tr *tracer
}

func (t *tracedHandler) Handle(from topology.NodeID, msg coap.Message) {
	sp := t.tr.begin(layerHandle)
	t.h.Handle(from, msg)
	t.tr.end(sp)
}

func (t *tracedHandler) HandleSendFailure(to topology.NodeID, msg coap.Message) {
	if fh, ok := t.h.(transport.FailureHandler); ok {
		sp := t.tr.begin(layerHandle)
		fh.HandleSendFailure(to, msg)
		t.tr.end(sp)
	}
}
