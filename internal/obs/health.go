package obs

import (
	"fmt"
	"io"
	"strconv"
)

// SLO/health evaluation: fold the registry's latency distributions into
// a structured verdict — did the run converge, are orphans left behind,
// and do the p50/p99/max of each declared distribution sit inside its
// budget. The report is emitted at experiment end, served live on
// /healthz, and reconstructed offline by `harptrace slo`.

// Budget declares the SLO bounds for one distribution kind, in the
// distribution's own units (milli-slots for the latency kinds). A zero
// bound is unbounded; a distribution with no observations passes.
type Budget struct {
	// Kind is the run-global distribution the budget applies to.
	Kind string
	// P50, P99 and Max bound the respective statistics (0 = unbounded).
	P50, P99, Max int64
}

// DefaultBudgets returns the repo's declared SLOs for the standard
// latency distributions, scaled to the run's slotframe length:
// escalation→commit within 20 slotframes at p99 (40 max), CON RTT
// within 100 slotframes at worst (the MAX_RETRANSMIT backoff ceiling),
// detect→adopt within 15 slotframes at worst (SuspectAfter+DeadAfter
// plus sweep jitter at the default detector thresholds).
func DefaultBudgets(slotsPerFrame int) []Budget {
	sf := int64(slotsPerFrame) * 1000 // milli-slots per slotframe
	return []Budget{
		{Kind: MetricEscCommitMs, P99: 20 * sf, Max: 40 * sf},
		{Kind: MetricConRttMs, Max: 100 * sf},
		{Kind: MetricDetectAdoptMs, Max: 15 * sf},
	}
}

// HealthCheck is one distribution's verdict.
type HealthCheck struct {
	// Kind names the distribution checked.
	Kind string
	// Count, P50, P99 and Max are the observed statistics (all zero for
	// an empty distribution).
	Count int64
	P50   int64
	P99   int64
	Max   int64
	// Budget is the declared bound the statistics were held against.
	Budget Budget
	// OK reports whether every bounded statistic sat inside its budget.
	OK bool
}

// HealthReport is the run's structured health verdict.
type HealthReport struct {
	// Converged reports protocol quiescence (no adjustment in flight).
	Converged bool
	// OrphansRemaining counts nodes left without a live parent.
	OrphansRemaining int
	// Checks holds one verdict per declared budget, in budget order.
	Checks []HealthCheck
	// OK is the fold: converged, no orphans, every check passed.
	OK bool
}

// EvalHealth builds the verdict from the registry's run-global
// distributions. Safe on a nil registry (all checks see an empty
// distribution). The caller supplies convergence and orphan state —
// the registry does not know them.
func EvalHealth(r *Registry, converged bool, orphans int, budgets []Budget) HealthReport {
	rep := HealthReport{Converged: converged, OrphansRemaining: orphans}
	rep.OK = converged && orphans == 0
	for _, b := range budgets {
		c := HealthCheck{Kind: b.Kind, Budget: b, OK: true}
		if h, ok := r.DistStat(Key(b.Kind)); ok && h.Count > 0 {
			c.Count = h.Count
			c.P50 = h.Quantile(0.5)
			c.P99 = h.Quantile(0.99)
			c.Max = h.Max
			if b.P50 > 0 && c.P50 > b.P50 {
				c.OK = false
			}
			if b.P99 > 0 && c.P99 > b.P99 {
				c.OK = false
			}
			if b.Max > 0 && c.Max > b.Max {
				c.OK = false
			}
		}
		if !c.OK {
			rep.OK = false
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep
}

// WriteText renders the report for humans, one line per check.
func (rep HealthReport) WriteText(w io.Writer) error {
	verdict := "HEALTHY"
	if !rep.OK {
		verdict = "UNHEALTHY"
	}
	if _, err := fmt.Fprintf(w, "health: %s (converged=%t orphans=%d)\n",
		verdict, rep.Converged, rep.OrphansRemaining); err != nil {
		return err
	}
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "BREACH"
		}
		if _, err := fmt.Fprintf(w, "  %-32s n=%-6d p50=%-8d p99=%-8d max=%-8d [p50<=%s p99<=%s max<=%s] %s\n",
			c.Kind, c.Count, c.P50, c.P99, c.Max,
			bound(c.Budget.P50), bound(c.Budget.P99), bound(c.Budget.Max), status); err != nil {
			return err
		}
	}
	return nil
}

// bound renders one budget bound; zero means unbounded.
func bound(v int64) string {
	if v == 0 {
		return "unbounded"
	}
	return strconv.FormatInt(v, 10)
}
