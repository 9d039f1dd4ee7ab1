//go:build !harpdebug

package sim

// debugChecks gates the patch-versus-full-install oracle. The default
// build skips it; `-tags harpdebug` enables it (see debug_on.go).
const debugChecks = false
