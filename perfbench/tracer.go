package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/harpnet/harp/internal/coap"
)

// layer names a span: one call from the benchmark (or from a library
// callback the benchmark installed) into one layer's public function.
type layer uint8

const (
	layerGenerate    layer = iota // topology: tree, tasks and scripts from the seed
	layerDeploy                   // agent.Deploy
	layerStart                    // Fleet.Start
	layerStaticRun                // Bus.Run of the static phase
	layerHandle                   // an agent's Handle / HandleSendFailure
	layerSend                     // Bus.Send / Bus.SendBackground
	layerSimNew                   // sim.New
	layerCommit                   // Validate + BuildSchedule + SetSchedule
	layerValidate                 // Fleet.Validate
	layerBuild                    // Fleet.BuildSchedule
	layerSetSchedule              // Simulator.SetSchedule
	layerRequest                  // the adjustment's Fleet.RequestLinkDemand calls
	layerSimRun                   // Simulator.Run, which advances the clock in the timed phase
	layerWindow                   // the slotframe-window telemetry hook
	layerPendingScan              // Fleet.PendingAdjustments inside the window hook
	layerHeal                     // EnableSelfHealing and the crash-script planting
	numLayers
)

var layerNames = [numLayers]string{
	"topology.generate", "agent.deploy", "agent.start", "transport.static_run",
	"agent.handle", "transport.send", "sim.new", "cosim.commit", "agent.validate",
	"agent.build_schedule", "sim.set_schedule", "agent.request", "sim.run",
	"obs.window", "agent.pending_scan", "agent.heal_setup",
}

// phase is the part of an iteration a span started in. Commit spans form
// their own phase wherever they nest.
type phase uint8

const (
	phaseSetup phase = iota
	phaseRun
	phaseCommit
	numPhases
)

var phaseNames = [numPhases]string{"setup", "run", "commit"}

// span is one timed call. Times are nanoseconds since the iteration began.
type span struct {
	parent     int32
	layer      layer
	phase      phase
	start, end int64
}

// tracer keeps one iteration's spans in memory. A nil tracer records
// nothing, so untraced passes make the same calls at no cost.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	phase phase

	// gc per phase: CPU seconds and allocated bytes, read from
	// runtime/metrics at phase boundaries and around every commit.
	gcCPU, gcAlloc [numPhases]float64
	gcSample       []metrics.Sample
	gcMark         [2]float64

	// captured wire messages for the coap unit costs.
	wires [][]byte
	// clock queue depths sampled at every send, for the vclock unit cost.
	depths []int
}

const maxCaptured = 4096

func newTracer() *tracer {
	return &tracer{
		gcSample: []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

// now reads the host clock: the spans measure host time by design. The
// directive marks it for harplint, which follows the library's handler
// and network interfaces into this wrapper.
//
//harplint:realtime
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	ph := t.phase
	if l == layerCommit {
		t.gcEnter()
		ph = phaseCommit
	} else if parent >= 0 && t.spans[parent].phase == phaseCommit {
		ph = phaseCommit
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: parent, layer: l, phase: ph, start: t.now()})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
	if t.spans[i].layer == layerCommit {
		t.gcLeave()
	}
}

func (t *tracer) readGC() (cpu, alloc float64) {
	metrics.Read(t.gcSample)
	return t.gcSample[0].Value.Float64(), float64(t.gcSample[1].Value.Uint64())
}

// openPhase starts a phase's GC accounting at the current instant.
func (t *tracer) openPhase(p phase) {
	t.phase = p
	t.gcMark[0], t.gcMark[1] = t.readGC()
}

// closePhase ends the open phase's GC accounting.
func (t *tracer) closePhase() { t.gcLeavePhase(t.phase) }

func (t *tracer) gcLeavePhase(p phase) {
	cpu, alloc := t.readGC()
	t.gcCPU[p] += cpu - t.gcMark[0]
	t.gcAlloc[p] += alloc - t.gcMark[1]
	t.gcMark[0], t.gcMark[1] = cpu, alloc
}

// Commits nest inside setup or run; their GC is moved to the commit phase.
func (t *tracer) gcEnter() { t.gcLeavePhase(t.phase) }
func (t *tracer) gcLeave() { t.gcLeavePhase(phaseCommit) }

func (t *tracer) capture(msg coap.Message) {
	if t == nil || len(t.wires) >= maxCaptured {
		return
	}
	if w, err := msg.AppendTo(nil); err == nil {
		t.wires = append(t.wires, w)
	}
}

func (t *tracer) sampleDepth(d int) {
	if t != nil {
		t.depths = append(t.depths, d)
	}
}

// layerStats is one layer's aggregate over an iteration's spans.
type layerStats struct {
	calls     int
	total     int64 // sum of span durations
	self      int64 // total minus the time child spans cover
	durations []int64
}

// aggregate folds the spans into per-layer and per-phase self times. The
// self times of all spans partition the time the root spans cover.
func (t *tracer) aggregate() (byLayer [numLayers]layerStats, byPhase [numPhases][numLayers]int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		self := d - child[i]
		ls := &byLayer[s.layer]
		ls.calls++
		ls.total += d
		ls.self += self
		ls.durations = append(ls.durations, d)
		byPhase[s.phase][s.layer] += self
	}
	return byLayer, byPhase
}

// writeSpans writes the iteration's spans as gzipped TSV, one span a line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\tlayer\tphase\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", i, s.parent, layerNames[s.layer], phaseNames[s.phase], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
