// Command perfbench is the repository's benchmark: it runs one of four
// co-simulation workloads for a fixed host time, checks every simulated
// output, and prints its metrics, the last line as one JSON object. See
// README.md for the workloads, the metrics and what each should move.
//
//	go run . --workload adjust-10k --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose fingerprints are pinned in fingerprints.json.
const defaultSeed = 1

//go:embed fingerprints.json
var pinnedJSON []byte

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is what a run prints as its last line.
type result struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) absorb(it *iteration) {
	r.attempted += it.attempted
	r.failed += len(it.failures)
	r.failures = append(r.failures, it.failures...)
}

func main() {
	workload := flag.String("workload", "", "workload name: deploy-50k, adjust-10k, mac-testbed50 or heal-1k")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs the traced composition and reports per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	printFP := flag.Bool("print-fingerprint", false, "print one iteration's fingerprint as JSON and exit")
	flag.Parse()
	// One thread: the simulation is serial, and a single P keeps the
	// garbage collector's work on the measured thread instead of on
	// whichever other CPU happens to be free.
	runtime.GOMAXPROCS(1)

	s, err := specByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *printFP {
		it, err := runIteration(s, variantSeed(*seed, 0), nil)
		if err != nil {
			fatal(err)
		}
		out, err := json.Marshal(it.fp)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	host, _ := os.Hostname() // diagnostics only
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d host=%s GOMAXPROCS=%d go=%s\n",
		s.name, *seed, *seconds, *trace, host, runtime.GOMAXPROCS(0), runtime.Version())

	deadline := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = runTraced(s, *seed, deadline, *spansDir)
	} else {
		res, err = runMeasured(s, *seed, deadline)
	}
	if err != nil {
		fatal(err)
	}
	for _, f := range res.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	printJSON(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runMeasured is the untraced run: a warm-up iteration, then iterations
// until the deadline and at least one per input variant, each driving
// cosim.New. Operation latencies pool every iteration's ops; simulated
// metrics fold the variants' fingerprints, so they are the same for every
// run at one seed.
func runMeasured(s spec, seed int64, deadline time.Duration) (*result, error) {
	res := &result{}
	warm, err := runIteration(s, variantSeed(seed, 0), nil)
	if err != nil {
		return nil, err
	}
	res.absorb(warm)
	fps := newVariants(res, s, seed, warm)
	var its []*iteration
	start := time.Now()
	for i := 0; i < s.variants || time.Since(start) < deadline; i++ {
		v := i % s.variants
		it, err := runIteration(s, variantSeed(seed, v), nil)
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		res.absorb(it)
		fps.check(v, it)
		its = append(its, it)
	}
	endToEnd(res, its, fps)
	printTable(res.metrics)
	printExtras(s, its)
	return res, nil
}

// variants holds the first fingerprint of each input variant. Every later
// iteration of a variant must reproduce it exactly, and variant 0 at the
// default seed must match fingerprints.json.
type variants struct {
	res   *result
	fps   []*fingerprint
	nodes []int
}

func newVariants(res *result, s spec, seed int64, warm *iteration) *variants {
	checkFingerprint(res, s, seed, warm.fp)
	vs := &variants{res: res, fps: make([]*fingerprint, s.variants), nodes: make([]int, s.variants)}
	vs.fps[0], vs.nodes[0] = &warm.fp, warm.nodes
	return vs
}

func (vs *variants) check(v int, it *iteration) {
	if vs.fps[v] == nil {
		vs.fps[v], vs.nodes[v] = &it.fp, it.nodes
		return
	}
	vs.res.attempted++
	if !sameFingerprint(it.fp, *vs.fps[v]) {
		vs.res.failed++
		vs.res.failures = append(vs.res.failures, fmt.Sprintf("variant %d: fingerprint differs between iterations", v))
	}
}

// endToEnd computes the end-to-end metrics, in BENCHMARK.json order.
// Set-up time and memory are medians over iterations. Wall time and slot
// throughput are totals over the run divided out (means): the host's speed
// drifts between a fast and a slow state, and a mean moves smoothly with
// the share of time spent in each where a median jumps between them.
func endToEnd(res *result, its []*iteration, vs *variants) {
	var setup, heap, alloc, ops []float64
	var wall, timed time.Duration
	slots := 0
	for _, it := range its {
		setup = append(setup, it.setup.Seconds())
		heap = append(heap, float64(it.heapBytes)/1e6)
		alloc = append(alloc, float64(it.allocBytes)/1e6)
		wall += it.setup + it.timed
		timed += it.timed
		slots += it.slots
		for _, d := range it.ops {
			ops = append(ops, float64(d)/1e6)
		}
	}
	sort.Float64s(ops)
	var msgsPerNode, p50, p99 []float64
	var delivered, released int
	for v, fp := range vs.fps {
		msgsPerNode = append(msgsPerNode, float64(fp.StaticMsgs)/float64(vs.nodes[v]))
		p50 = append(p50, float64(fp.LatencyP50))
		p99 = append(p99, float64(fp.LatencyP99))
		delivered += fp.Delivered
		released += fp.Released
	}
	res.add("setup_s", "s", median(setup))
	res.add("wall_s", "s", wall.Seconds()/float64(len(its)))
	res.add("sim_slots_per_s", "1/s", float64(slots)/timed.Seconds())
	res.add("op_ms_p50", "ms", rank(ops, 0.50))
	res.add("op_ms_p90", "ms", rank(ops, 0.90))
	res.add("heap_mb", "MB", median(heap))
	res.add("alloc_mb", "MB", median(alloc))
	res.add("static_msgs_per_node", "msgs", mean(msgsPerNode))
	res.add("delivery_ratio", "ratio", float64(delivered)/float64(released))
	res.add("latency_slots_p50", "slots", median(p50))
	res.add("latency_slots_p99", "slots", median(p99))
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// printExtras prints the workload-specific numbers the shared end-to-end
// set cannot carry (an operation means something different per workload).
func printExtras(s spec, its []*iteration) {
	fp := its[0].fp
	var ops []time.Duration
	for _, it := range its {
		ops = append(ops, it.ops...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	fmt.Printf("iterations=%d ops=%d (op = %s)\n", len(its), len(ops), opName(s))
	fmt.Print("op quantiles:")
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		fmt.Printf(" p%g=%v", 100*p, rank(ops, p))
	}
	fmt.Println()
	if len(fp.Commits) > 0 {
		var win []int
		msgs := 0
		for _, c := range fp.Commits {
			win = append(win, c[1]-c[0])
			msgs += c[2]
		}
		sort.Ints(win)
		fmt.Printf("variant 0: disruption_slots_p50=%d slots  msgs_per_adjust=%.2f msgs  commits=%d\n",
			rank(win, 0.5), float64(msgs)/float64(len(fp.Commits)), len(fp.Commits))
	}
	if len(fp.DetectSf) > 0 {
		fmt.Printf("variant 0: detect_sf_p50=%.4f slotframes  deaths=%d adoptions=%d readmissions=%d keepalives=%d\n",
			rank(fp.DetectSf, 0.5), fp.Deaths, fp.Adoptions, fp.Readmissions, fp.Keepalives)
	}
	fmt.Printf("variant 0: released=%d delivered=%d dropped=%d pending=%d events=%d executed_slots=%d of %d\n",
		fp.Released, fp.Delivered, fp.Dropped, fp.Pending, fp.Events, fp.Executed, fp.SimSlots)
}

func opName(s spec) string {
	switch {
	case s.changes > 0:
		return "one adjustment, Adjust to the first quiesced Run return (commit_ms)"
	case s.opSlotframes > 1:
		return fmt.Sprintf("%d slotframes of co-simulation", s.opSlotframes)
	default:
		return "one slotframe of co-simulation"
	}
}

// checkFingerprint compares variant 0 at the default seed with the pinned
// fingerprint. Other seeds are not pinned.
func checkFingerprint(res *result, s spec, seed int64, fp fingerprint) {
	if seed != defaultSeed {
		return
	}
	var pinned map[string]fingerprint
	res.attempted++
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		res.failed++
		res.failures = append(res.failures, "fingerprints.json: "+err.Error())
		return
	}
	want, ok := pinned[s.name]
	if !ok || !sameFingerprint(fp, want) {
		res.failed++
		res.failures = append(res.failures, "fingerprint at the default seed differs from fingerprints.json")
	}
}

func sameFingerprint(a, b fingerprint) bool { return reflect.DeepEqual(a, b) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printTable(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// printJSON prints the result line: correct, attempted, failed, metrics.
// A metric that is not a finite number counts as a failed check.
func printJSON(r *result) {
	for i, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Println("CHECK FAILED: metric", m.name, "is not a number")
			r.attempted++
			r.failed++
			r.metrics[i].value = 0
		}
	}
	fmt.Printf("error_rate=%g (%d of %d checks failed)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `"%s": {"value": %s, "unit": "%s"}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	fmt.Println(b.String())
}
