package experiments

import (
	"errors"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Status is the campaign runner's per-experiment outcome.
type Status struct {
	// Result is the experiment outcome — the driver's own on success,
	// a synthesized FAIL result when the driver crashed or deadlined,
	// or the checkpointed result when resumed.
	Result core.Result
	// Wall is the driver's wall-clock cost (zero when resumed).
	Wall time.Duration
	// Resumed reports that the result was loaded from the checkpoint
	// instead of re-run.
	Resumed bool
	// Skipped reports that the experiment never started because the
	// campaign was stopped (Campaign.Stop returned true) before its
	// turn came. Skipped results are synthesized and not checkpointed,
	// so a stopped campaign can later resume and run them for real.
	Skipped bool
	// Failure carries the isolation record when the driver panicked,
	// deadlined, or returned an error; nil on success.
	Failure *par.PointError
	// CheckpointErr reports that persisting this (otherwise valid)
	// result to the checkpoint failed — typically a full or failing
	// disk. The result itself is intact in memory; a resume will re-run
	// the experiment. Callers that promise durability (the job daemon)
	// must surface this instead of reporting clean completion.
	CheckpointErr error
}

// Campaign configures RunCampaign.
type Campaign struct {
	// Parallel bounds concurrently running experiments (min 1).
	Parallel int
	// Deadline is the per-experiment wall-clock budget. It is enforced
	// by the simulation schedulers themselves (sim.SetDefaultWallBudget):
	// a driver that overruns aborts at its next event boundary with a
	// *sim.DeadlineError and is reported as a structured failure. Zero
	// disables the watchdog.
	Deadline time.Duration
	// Checkpoint, when non-nil, records every finished experiment and
	// skips the ones already on record (resume).
	Checkpoint *Checkpoint
	// Emit observes each experiment's status, in campaign order. It
	// runs on the RunCampaign goroutine.
	Emit func(index int, st Status)
	// Stop, when non-nil, is polled as each experiment is about to
	// execute. Once it returns true, not-yet-started experiments are
	// skipped with a synthesized failing status (Status.Skipped) while
	// in-flight ones run to completion and checkpoint normally. This is
	// the cancel/drain hook for long-running callers (the mmsimd job
	// daemon): a stopped campaign resumes later from its checkpoint.
	Stop func() bool
}

// campaignBudget reference-counts the process-global default wall
// budget (sim.SetDefaultWallBudget) so concurrent RunCampaign calls —
// the daemon runs one per in-flight job — do not stomp each other's
// watchdogs on exit. While any deadline-bearing campaign is active the
// tightest active deadline is in force; the pre-existing default is
// restored only when the last one leaves.
var campaignBudget struct {
	mu     sync.Mutex
	active []time.Duration
	prev   time.Duration
}

func pushCampaignBudget(d time.Duration) {
	b := &campaignBudget
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.active) == 0 {
		b.prev = sim.SetDefaultWallBudget(d)
	}
	b.active = append(b.active, d)
	sim.SetDefaultWallBudget(minBudget(b.active))
}

func popCampaignBudget(d time.Duration) {
	b := &campaignBudget
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, v := range b.active {
		if v == d {
			b.active = append(b.active[:i], b.active[i+1:]...)
			break
		}
	}
	if len(b.active) == 0 {
		sim.SetDefaultWallBudget(b.prev)
		return
	}
	sim.SetDefaultWallBudget(minBudget(b.active))
}

func minBudget(ds []time.Duration) time.Duration {
	min := ds[0]
	for _, d := range ds[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// RunCampaign executes the runners with bounded parallelism and full
// failure isolation: one experiment panicking, exceeding the deadline,
// or being killed by a bug never prevents the others from completing.
// Statuses are emitted strictly in input order. It returns the number
// of experiments that did not pass (failed checks, crashes, deadlines).
//
// Determinism: a resumed campaign emits bit-identical results to an
// uninterrupted one — checkpointed results round-trip exactly, and
// skipping finished experiments cannot perturb the remaining drivers,
// which derive all randomness from (Options, experiment ID).
func RunCampaign(runners []Runner, opts Options, c Campaign) int {
	if c.Parallel < 1 {
		c.Parallel = 1
	}
	if c.Deadline > 0 {
		pushCampaignBudget(c.Deadline)
		defer popCampaignBudget(c.Deadline)
	}

	statuses := make([]chan Status, len(runners))
	for i := range statuses {
		statuses[i] = make(chan Status, 1)
	}
	sem := make(chan struct{}, c.Parallel)
	for i, r := range runners {
		if c.Checkpoint != nil {
			if res, ok := c.Checkpoint.Done(r.ID); ok {
				statuses[i] <- Status{Result: res, Resumed: true}
				continue
			}
		}
		i, r := i, r
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			// Poll Stop only once the worker slot is held: "stopped"
			// means no further experiment starts, while the in-flight
			// ones (holding the other slots) still finish and record.
			if c.Stop != nil && c.Stop() {
				statuses[i] <- Status{Result: SkipResult(r), Skipped: true}
				return
			}
			statuses[i] <- runOne(r, opts, c.Deadline)
		}()
	}

	failed := 0
	for i := range runners {
		st := <-statuses[i]
		if !st.Result.Pass() {
			failed++
		}
		if c.Checkpoint != nil && !st.Resumed && !st.Skipped {
			// Record even synthesized failures: a resumed campaign must
			// not silently re-run a reproducibly crashing driver forever.
			if err := c.Checkpoint.Record(st.Result); err != nil {
				st.CheckpointErr = err
				st.Result.Note("checkpoint write failed: %v", err)
			}
		}
		if c.Emit != nil {
			c.Emit(i, st)
		}
	}
	return failed
}

// SkipResult synthesizes the result for an experiment a stopped
// campaign never launched. It fails Pass() so a stopped campaign is
// never mistaken for a complete one. The shard coordinator reuses it so
// a drained sharded campaign skips with byte-identical statuses.
func SkipResult(r Runner) core.Result {
	res := core.Result{ID: r.ID, Title: r.Title, PaperClaim: "(not started)"}
	res.AddCheck("completed", "started", "campaign stopped before launch", false)
	return res
}

// runOne executes a single driver under panic isolation.
func runOne(r Runner, opts Options, deadline time.Duration) Status {
	var res core.Result
	start := time.Now()
	pe := par.Guarded(0, 0, func(int) error {
		res = r.Run(opts)
		return nil
	})
	wall := time.Since(start)
	if pe == nil {
		return Status{Result: res, Wall: wall}
	}
	return Status{Result: failResult(r, pe, deadline), Wall: wall, Failure: pe}
}

// failResult synthesizes the structured FAIL report for a crashed or
// deadlined driver, so campaign output and checkpoints stay uniform.
func failResult(r Runner, pe *par.PointError, deadline time.Duration) core.Result {
	res := core.Result{ID: r.ID, Title: r.Title, PaperClaim: "(driver did not complete)"}
	var de *sim.DeadlineError
	var ve *audit.ViolationError
	var fe *vfs.FaultError
	var ge *rf.GeometryError
	switch {
	case failureAs(pe, &ve):
		res.AddCheck("audit", "invariants hold",
			"violated "+string(ve.V.Rule), false)
		res.Note("audit [%s] at sim time %v: %s", ve.V.Rule, ve.V.Time, ve.V.Detail)
	case failureAs(pe, &fe):
		res.AddCheck("persistence", "disk writes complete",
			"disk fault during "+fe.Op, false)
		res.Note("disk fault: op %s path %s: %v", fe.Op, fe.Path, fe.Err)
	case failureAs(pe, &ge):
		res.AddCheck("geometry", "scenario traces",
			"ray tracer rejected the scenario", false)
		res.Note("geometry: trace %v→%v: %v", ge.Tx, ge.Rx, ge.Err)
	case failureAs(pe, &de):
		res.AddCheck("completed", "within deadline",
			"exceeded "+deadline.String()+" wall-clock budget", false)
		res.Note("aborted at sim time %v after %v of wall time", de.SimTime, de.Elapsed.Round(time.Millisecond))
	case pe.Panic != nil:
		res.AddCheck("completed", "no panic", "driver panicked", false)
		res.Note("panic: %v", pe.Panic)
	default:
		res.AddCheck("completed", "no error", "driver failed", false)
		res.Note("error: %v", pe.Err)
	}
	return res
}

// failureAs digs a typed failure out of a point failure, whatever shape
// par.Guarded delivered it in: a recovered panic value, a panicked error
// wrapping it (sim.Medium's trace panic wraps an *rf.GeometryError), the
// Err chain, or a nested sweep's *PointError — a deadlined or audited
// sweep point panics inside its worker, so the failure rides the inner
// Panic field. Classifying every class through this one walk keeps
// deadlines, audit violations, disk faults and geometry errors
// recognised in the same shapes.
func failureAs[T error](pe *par.PointError, out *T) bool {
	for pe != nil {
		err := pe.Err
		if p, ok := pe.Panic.(error); ok {
			err = p
		}
		if err == nil {
			return false
		}
		if errors.As(err, out) {
			return true
		}
		var inner *par.PointError
		if !errors.As(err, &inner) {
			return false
		}
		pe = inner
	}
	return false
}
