package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Progress tracks completion of a known amount of work across the
// experiment runner's worker pool. It is the one place in this package
// where atomics are required: many workers report completions while a
// monitor goroutine reads snapshots. The work unit is whatever the caller
// counts — experiment cells for sweeps, writebacks for single runs.
type Progress struct {
	total  atomic.Int64
	done   atomic.Int64
	reused atomic.Int64
	start  time.Time
}

// NewProgress starts tracking total units of work from now. A total of 0
// is fine when the amount is not known up front: producers announce work
// with AddTotal as they discover it (the experiment cell executor does
// this), and percentages/ETA firm up as announcements arrive.
func NewProgress(total int) *Progress {
	p := &Progress{start: time.Now()}
	p.total.Store(int64(total))
	return p
}

// Add reports n completed units. Safe for concurrent use.
func (p *Progress) Add(n int) { p.done.Add(int64(n)) }

// AddTotal announces n more units of upcoming work. Safe for concurrent use.
func (p *Progress) AddTotal(n int) { p.total.Add(int64(n)) }

// AddReused marks n already-counted completions as served from a cache or
// recording rather than executed. Reused units complete orders of
// magnitude faster than executed ones, so folding them into one rate made
// the ETA wildly optimistic the moment a warm run served its first cells;
// Snapshot instead computes the ETA from the executed-unit rate alone.
// Safe for concurrent use.
func (p *Progress) AddReused(n int) { p.reused.Add(int64(n)) }

// ProgressSnapshot is a point-in-time view of a Progress.
type ProgressSnapshot struct {
	Done    int64
	Total   int64
	Elapsed time.Duration
	// Reused is how many of the Done units were served from a cache or
	// recording instead of executed (see AddReused).
	Reused int64
	// Rate is completed units per second since start, reused included.
	Rate float64
	// ExecRate is executed (non-reused) units per second since start —
	// the rate that actually predicts remaining cold work.
	ExecRate float64
	// ETA estimates the remaining time at the executed-unit rate, falling
	// back to the overall rate while nothing has executed yet (0 until
	// the first unit completes).
	ETA time.Duration
}

// Snapshot reads the current state. Safe for concurrent use.
func (p *Progress) Snapshot() ProgressSnapshot {
	s := ProgressSnapshot{
		Done:    p.done.Load(),
		Total:   p.total.Load(),
		Reused:  p.reused.Load(),
		Elapsed: time.Since(p.start),
	}
	executed := s.Done - s.Reused
	if executed < 0 {
		// Reuse can be reported by runners outside the counted pool
		// (direct cell calls); never let that push the executed rate
		// negative.
		executed = 0
	}
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.Rate = float64(s.Done) / secs
		s.ExecRate = float64(executed) / secs
	}
	rate := s.ExecRate
	if rate <= 0 {
		rate = s.Rate
	}
	if rate > 0 && s.Done < s.Total {
		s.ETA = time.Duration(float64(s.Total-s.Done) / rate * float64(time.Second))
	}
	return s
}

// String renders the snapshot as a single status line.
func (s ProgressSnapshot) String() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	out := fmt.Sprintf("%d/%d (%.0f%%) in %s, %.1f/s",
		s.Done, s.Total, pct, s.Elapsed.Round(time.Millisecond), s.Rate)
	if s.Reused > 0 {
		out += fmt.Sprintf(" (%d reused)", s.Reused)
	}
	if s.ETA > 0 {
		out += fmt.Sprintf(", ETA %s", s.ETA.Round(time.Second))
	}
	return out
}

// Watch spawns a goroutine that calls report with a fresh snapshot every
// interval until all work completes or stop is closed. It returns a
// function that stops the watcher and emits one final snapshot.
func (p *Progress) Watch(interval time.Duration, report func(ProgressSnapshot)) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := p.Snapshot()
				report(s)
				if s.Total > 0 && s.Done >= s.Total {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		report(p.Snapshot())
	}
}
