//go:build harpdebug

package sim

// debugChecks holds every PatchSchedule against a full install of the same
// schedule (checkAgainstFullInstall), panicking on the first difference.
const debugChecks = true
