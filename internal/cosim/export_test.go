package cosim

import (
	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/schedule"
)

// SetScheduleObserver installs fn as the harness's schedule observer for
// tests and returns a function restoring the previous one.
func SetScheduleObserver(fn func(f *agent.Fleet, s *schedule.Schedule, verdict error)) (restore func()) {
	prev := scheduleObserver
	scheduleObserver = fn
	return func() { scheduleObserver = prev }
}
