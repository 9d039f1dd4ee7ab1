package agent

// PendingScan exposes the fleet-wide pendingSince scan that the running
// count replaced, for the external tests' cross-check.
func (f *Fleet) PendingScan() int { return f.scanPending() }
