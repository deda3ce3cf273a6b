package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/par"
)

// Tunable defaults. Tests shrink the timeouts; production keeps them
// generous so a loaded machine never misclassifies a live worker.
const (
	// DefaultHeartbeatTimeout declares a worker dead-silent: no record
	// of any kind for this long means the process is gone, wedged, or
	// stopped, and its slice must be re-run elsewhere.
	DefaultHeartbeatTimeout = 10 * time.Second
	// DefaultMaxAttempts bounds per-experiment launches before the
	// coordinator synthesizes a structured FAIL instead of retrying.
	DefaultMaxAttempts = 3
	// DefaultRetryBase / DefaultRetryMax bound the jittered exponential
	// backoff before a dead worker's experiment is re-queued.
	DefaultRetryBase = 100 * time.Millisecond
	DefaultRetryMax  = 5 * time.Second
	// DefaultStealAfter is how long a slice may age before an idle
	// worker speculatively duplicates its remaining experiments.
	DefaultStealAfter = 30 * time.Second
)

// Config tunes a sharded campaign run.
type Config struct {
	// Shards is the target worker-process count (min 1).
	Shards int
	// Deadline is the per-experiment wall-clock watchdog forwarded to
	// the workers (experiments.Campaign.Deadline semantics).
	Deadline time.Duration
	// Checkpoint, when non-nil, records every merged result in campaign
	// order and pre-fills experiments already on record (resume).
	Checkpoint *experiments.Checkpoint
	// Emit observes each experiment's status, strictly in campaign
	// order, on the Run goroutine — the same contract as
	// experiments.Campaign.Emit.
	Emit func(index int, st experiments.Status)
	// Stop, when non-nil, is polled between assignments. Once true, no
	// further experiment starts: queued and retry-pending ones are
	// skipped with synthesized statuses (experiments.SkipResult) while
	// in-flight slices run to completion and checkpoint — the campaign
	// drain contract, so a stopped sharded job resumes cleanly.
	Stop func() bool
	// SweepWorkers is the intra-experiment pool width forwarded to each
	// worker (0 keeps the worker's default).
	SweepWorkers int
	// AuditMode forwards the runtime invariant auditing mode ("off",
	// "warn", "strict") to the workers.
	AuditMode string
	// SliceSize is the number of experiments per assignment (min 1).
	// Small slices keep the pull-based queue naturally load-balanced.
	SliceSize int
	// MaxAttempts bounds per-experiment launches (default 3).
	MaxAttempts int
	// HeartbeatEvery is the worker heartbeat cadence.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout classifies a silent worker as dead/wedged.
	HeartbeatTimeout time.Duration
	// ProgressTimeout classifies a worker that heartbeats but makes no
	// experiment progress as hung. Zero disables the check unless
	// Deadline is set, in which case it defaults to Deadline + 30s — a
	// healthy worker's watchdog aborts any experiment before that.
	ProgressTimeout time.Duration
	// RetryBase / RetryMax bound the retry backoff.
	RetryBase time.Duration
	RetryMax  time.Duration
	// StealAfter ages a slice before idle workers may steal it.
	StealAfter time.Duration
	// WorkerCommand builds the worker process. The default re-execs the
	// current binary with -shard-worker (the mmsim protocol flag);
	// mmsimd and tests substitute their own argv.
	WorkerCommand func() (*exec.Cmd, error)
	// Log receives human-readable robustness events (worker deaths,
	// retries, steals, degradation). Defaults to os.Stderr.
	Log io.Writer
}

func (c *Config) fillDefaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.SliceSize < 1 {
		c.SliceSize = 1
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if c.ProgressTimeout <= 0 && c.Deadline > 0 {
		c.ProgressTimeout = c.Deadline + 30*time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.StealAfter <= 0 {
		c.StealAfter = DefaultStealAfter
	}
	if c.WorkerCommand == nil {
		c.WorkerCommand = selfWorkerCommand
	}
	if c.Log == nil {
		c.Log = os.Stderr
	}
}

// selfWorkerCommand re-execs the running binary in mmsim's worker
// protocol mode.
func selfWorkerCommand() (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return exec.Command(exe, "-shard-worker"), nil
}

// Coordinator owns one sharded campaign execution.
type Coordinator struct {
	runners []experiments.Runner
	opts    experiments.Options
	cfg     Config

	mu     sync.Mutex
	procs  map[int]*exec.Cmd
	killed bool
}

// New builds a coordinator. Run executes it; Kill (safe from a signal
// handler goroutine) terminates the worker processes so an interrupted
// parent never strands children.
func New(runners []experiments.Runner, opts experiments.Options, cfg Config) *Coordinator {
	cfg.fillDefaults()
	return &Coordinator{runners: runners, opts: opts, cfg: cfg, procs: make(map[int]*exec.Cmd)}
}

// Kill force-terminates every live worker process and stops further
// spawns. It is the interrupt hook: the campaign's checkpoint already
// holds every merged record (seal-safe Close is the caller's job), so
// the workers' in-flight work is simply abandoned.
func (c *Coordinator) Kill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.killed = true
	for _, cmd := range c.procs {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

func (c *Coordinator) addProc(id int, cmd *exec.Cmd) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return false
	}
	c.procs[id] = cmd
	return true
}

func (c *Coordinator) removeProc(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.procs, id)
}

func (c *Coordinator) isKilled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// Run executes the campaign across the worker fleet and returns the
// number of experiments that did not pass — the same contract as
// experiments.RunCampaign, byte-identical statuses included.
func (c *Coordinator) Run() int {
	d := &dispatcher{
		c:       c,
		cfg:     c.cfg,
		fp:      experiments.OptionsFingerprint(c.opts),
		events:  make(chan event, 256),
		workers: make(map[int]*workerState),
		pend:    make([]*pendState, len(c.runners)),
	}
	d.merge = newMerger(len(c.runners), d.flush)

	// Pre-fill resumed experiments so the queue only carries real work.
	for i, r := range c.runners {
		if c.cfg.Checkpoint != nil {
			if res, ok := c.cfg.Checkpoint.Done(r.ID); ok {
				d.merge.offer(i, experiments.Status{Result: res, Resumed: true})
				continue
			}
		}
		d.pend[i] = &pendState{runner: r}
	}
	d.buildQueue()
	if d.merge.done() {
		return d.merge.failedCount()
	}

	// Spawn the fleet: one worker per slice up to Shards. Zero live
	// workers (fork/exec unavailable) degrades to in-process execution.
	want := c.cfg.Shards
	if n := len(d.queue); want > n {
		want = n
	}
	for i := 0; i < want; i++ {
		if err := d.spawnWorker(); err != nil {
			d.logf("shard: spawning worker: %v", err)
			break
		}
	}
	if len(d.workers) == 0 {
		d.degrade("no worker process could be started")
		return d.merge.failedCount()
	}
	d.dispatch()

	tick := d.tickEvery()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for !d.merge.done() {
		select {
		case ev := <-d.events:
			d.handle(ev)
		case <-ticker.C:
			d.tick()
		}
		if d.degraded {
			break
		}
	}
	d.shutdown()
	return d.merge.failedCount()
}

// pendState tracks one not-yet-merged experiment.
type pendState struct {
	runner   experiments.Runner
	attempts int // primary (non-speculative) launches so far
	running  int // live executions across workers (primary + stolen)
	retrying bool
	startAt  time.Time // first observed launch, for the wall annotation
}

// assignment is one slice in flight on a worker.
type assignment struct {
	seq        uint64
	indices    []int
	assignedAt time.Time
	stolen     bool // a speculative copy exists (or this is one)
}

// workerState is the dispatcher's view of one worker process.
type workerState struct {
	id           int
	cmd          *exec.Cmd
	stdin        io.Closer
	in           *msgWriter
	cur          *assignment
	lastSeen     time.Time
	lastProgress time.Time
	closing      bool   // stdin closed; exit is expected
	killReason   string // set when the coordinator killed it
}

// Event kinds flowing into the dispatcher.
const (
	evHeartbeat = iota
	evStart
	evResult
	evDone
	evExit
	evRequeue
)

type event struct {
	kind    int
	w       *workerState
	start   startMsg
	fp      string
	res     core.Result
	exitErr error
	indices []int
}

// dispatcher is the single-goroutine state machine behind Run: all
// mutable campaign state is confined here, fed by per-worker reader and
// waiter goroutines, the retry timers, and the liveness ticker.
type dispatcher struct {
	c        *Coordinator
	cfg      Config
	fp       string
	events   chan event
	queue    [][]int
	pend     []*pendState
	merge    *merger
	workers  map[int]*workerState
	nextWID  int
	nextSeq  uint64
	stopped  bool
	degraded bool
	retries  int // scheduled requeues not yet fired
}

func (d *dispatcher) logf(format string, args ...any) {
	fmt.Fprintf(d.cfg.Log, format+"\n", args...)
}

// flush observes each merged status in campaign order: record it in the
// checkpoint (mirroring RunCampaign, synthesized failures included —
// a reproducibly crashing experiment must not re-run forever on resume;
// skips stay un-checkpointed so a drained campaign resumes them), then
// hand it to the caller.
func (d *dispatcher) flush(index int, st experiments.Status) {
	if d.cfg.Checkpoint != nil && !st.Resumed && !st.Skipped {
		if err := d.cfg.Checkpoint.Record(st.Result); err != nil {
			d.logf("shard: checkpoint write failed: %v", err)
		}
	}
	if d.cfg.Emit != nil {
		d.cfg.Emit(index, st)
	}
}

// buildQueue slices the pending experiments into assignments in
// campaign order.
func (d *dispatcher) buildQueue() {
	var cur []int
	for i, p := range d.pend {
		if p == nil {
			continue
		}
		cur = append(cur, i)
		if len(cur) >= d.cfg.SliceSize {
			d.queue = append(d.queue, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		d.queue = append(d.queue, cur)
	}
}

func (d *dispatcher) tickEvery() time.Duration {
	t := d.cfg.HeartbeatTimeout
	if d.cfg.ProgressTimeout > 0 && d.cfg.ProgressTimeout < t {
		t = d.cfg.ProgressTimeout
	}
	if d.cfg.StealAfter < t {
		t = d.cfg.StealAfter
	}
	t /= 4
	if t < 10*time.Millisecond {
		t = 10 * time.Millisecond
	}
	if t > time.Second {
		t = time.Second
	}
	return t
}

// spawnWorker launches one worker process and its reader/waiter
// goroutines.
func (d *dispatcher) spawnWorker() error {
	cmd, err := d.cfg.WorkerCommand()
	if err != nil {
		return err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	w := &workerState{
		id:           d.nextWID,
		cmd:          cmd,
		stdin:        stdin,
		lastSeen:     time.Now(),
		lastProgress: time.Now(),
	}
	d.nextWID++
	if !d.c.addProc(w.id, cmd) {
		// Kill() already fired: never grow the fleet after an interrupt.
		_ = cmd.Process.Kill()
	}

	readerDone := make(chan struct{})
	go d.readWorker(w, stdout, readerDone)
	go func() {
		// Wait only after the reader drained stdout: exec.Cmd.Wait
		// closes the pipes, and racing it loses buffered records.
		<-readerDone
		err := cmd.Wait()
		d.c.removeProc(w.id)
		d.events <- event{kind: evExit, w: w, exitErr: err}
	}()

	in, err := newMsgWriter(stdin)
	if err == nil {
		w.in = in
		// DiskFS is process-local plumbing: a live filesystem cannot ride
		// a gob hello. The worker builds its own (WorkerMain's fs
		// parameter; the real OS by default).
		wireOpts := d.c.opts
		wireOpts.DiskFS = nil
		err = in.send(tagHello, helloMsg{
			Opts:           wireOpts,
			Deadline:       d.cfg.Deadline,
			SweepWorkers:   d.cfg.SweepWorkers,
			AuditMode:      d.cfg.AuditMode,
			HeartbeatEvery: d.cfg.HeartbeatEvery,
		})
	}
	if err != nil {
		// The pipe is already broken; reap it through the normal death
		// path so its (empty) state unwinds consistently.
		w.killReason = fmt.Sprintf("hello failed: %v", err)
		_ = cmd.Process.Kill()
	}
	d.workers[w.id] = w
	return nil
}

// readWorker decodes one worker's stdout stream into dispatcher events.
func (d *dispatcher) readWorker(w *workerState, stdout io.Reader, done chan<- struct{}) {
	defer close(done)
	mr, err := newMsgReader(stdout)
	if err != nil {
		return
	}
	for {
		tag, body, err := mr.next()
		if err != nil {
			return
		}
		ev, err := decodeWorkerRecord(tag, body)
		if err != nil {
			continue // the retry machinery covers a lost record
		}
		ev.w = w
		d.events <- ev
	}
}

// decodeWorkerRecord turns one worker→coordinator record into its
// dispatcher event, worker unset. Unknown tags and undecodable bodies
// come back as errors.
func decodeWorkerRecord(tag byte, body []byte) (event, error) {
	switch tag {
	case tagHeartbeat:
		return event{kind: evHeartbeat}, nil
	case tagStart:
		var s startMsg
		if err := decodeBody(body, &s); err != nil {
			return event{}, fmt.Errorf("shard: start record: %w", err)
		}
		return event{kind: evStart, start: s}, nil
	case tagResult:
		fp, res, err := experiments.DecodeCheckpointRecord(body)
		if err != nil {
			return event{}, fmt.Errorf("shard: result record: %w", err)
		}
		return event{kind: evResult, fp: fp, res: res}, nil
	case tagDone:
		return event{kind: evDone}, nil
	}
	return event{}, fmt.Errorf("shard: unknown record tag %q", tag)
}

func (d *dispatcher) handle(ev event) {
	now := time.Now()
	switch ev.kind {
	case evHeartbeat:
		ev.w.lastSeen = now
	case evStart:
		ev.w.lastSeen = now
		ev.w.lastProgress = now
		if i, ok := d.findAssigned(ev.w, ev.start.ID); ok {
			if p := d.pend[i]; p != nil && p.startAt.IsZero() {
				p.startAt = now
			}
		}
	case evResult:
		ev.w.lastSeen = now
		ev.w.lastProgress = now
		d.mergeResult(ev.w, ev.fp, ev.res)
	case evDone:
		ev.w.lastSeen = now
		ev.w.lastProgress = now
		d.finishSlice(ev.w, "slice ended without a result")
		ev.w.cur = nil
		d.dispatch()
	case evExit:
		d.workerExited(ev.w, ev.exitErr)
	case evRequeue:
		d.retries--
		var live []int
		for _, i := range ev.indices {
			p := d.pend[i]
			if p == nil || d.merge.has(i) {
				continue
			}
			p.retrying = false
			if d.stopped {
				d.skip(i)
				continue
			}
			live = append(live, i)
		}
		if len(live) > 0 {
			d.queue = append(d.queue, live)
			d.ensureWorkers()
			d.dispatch()
		}
	}
}

// findAssigned locates the first incomplete index for id in the
// worker's current slice.
func (d *dispatcher) findAssigned(w *workerState, id string) (int, bool) {
	if w.cur == nil {
		return 0, false
	}
	for _, i := range w.cur.indices {
		if d.pend[i] != nil && !d.merge.has(i) && d.pend[i].runner.ID == id {
			return i, true
		}
	}
	return 0, false
}

// mergeResult validates and merges one arriving record. First arrival
// wins; duplicates from stolen slices and records carrying a foreign
// options fingerprint are dropped.
func (d *dispatcher) mergeResult(w *workerState, fp string, res core.Result) {
	if fp != d.fp {
		d.logf("shard: worker %d: dropping record for %s with foreign fingerprint %q", w.id, res.ID, fp)
		return
	}
	i, ok := d.findAssigned(w, res.ID)
	if !ok {
		return // stale or duplicate: the slice copy that lost the race
	}
	p := d.pend[i]
	var wall time.Duration
	if !p.startAt.IsZero() {
		wall = time.Since(p.startAt)
	}
	d.merge.offer(i, experiments.Status{Result: res, Wall: wall})
}

// finishSlice settles a worker's current slice when its execution ends
// (done ack or worker death): every incomplete index loses this
// worker's execution, and indices left with no live execution are
// retried, skipped, or failed.
func (d *dispatcher) finishSlice(w *workerState, cause string) {
	if w.cur == nil {
		return
	}
	for _, i := range w.cur.indices {
		p := d.pend[i]
		if p == nil {
			continue
		}
		if p.running > 0 {
			p.running--
		}
		if d.merge.has(i) || p.retrying || p.running > 0 {
			continue
		}
		d.retryOrFail(i, cause)
	}
}

// workerExited is the death path: classify, unwind the slice, retry,
// and keep the fleet sized to the remaining work.
func (d *dispatcher) workerExited(w *workerState, exitErr error) {
	delete(d.workers, w.id)
	if w.closing {
		return // expected: we closed its stdin after the work ran out
	}
	reason := w.killReason
	if reason == "" {
		reason = fmt.Sprintf("worker %d died (%v)", w.id, exitErr)
	} else {
		reason = fmt.Sprintf("worker %d killed: %s", w.id, reason)
	}
	if w.cur != nil || !d.stopped {
		d.logf("shard: %s", reason)
	}
	d.finishSlice(w, reason)
	w.cur = nil
	d.ensureWorkers()
	d.dispatch()
}

// retryOrFail schedules one more launch for index after a jittered
// backoff, or synthesizes the structured FAIL once attempts run out.
func (d *dispatcher) retryOrFail(index int, cause string) {
	p := d.pend[index]
	if d.stopped {
		d.skip(index)
		return
	}
	if p.attempts >= d.cfg.MaxAttempts {
		d.logf("shard: giving up on %s after %d attempt(s): %s", p.runner.ID, p.attempts, cause)
		d.merge.offer(index, experiments.Status{Result: deadResult(p.runner, p.attempts, cause)})
		return
	}
	delay := par.Backoff(p.attempts, d.cfg.RetryBase, d.cfg.RetryMax)
	d.logf("shard: retrying %s in %v (attempt %d/%d): %s",
		p.runner.ID, delay.Round(time.Millisecond), p.attempts+1, d.cfg.MaxAttempts, cause)
	p.retrying = true
	d.retries++
	idx := index
	time.AfterFunc(delay, func() {
		d.events <- event{kind: evRequeue, indices: []int{idx}}
	})
}

// skip emits the campaign's synthesized skip status for an experiment
// the stopped coordinator never (re)launched.
func (d *dispatcher) skip(index int) {
	p := d.pend[index]
	d.merge.offer(index, experiments.Status{Result: experiments.SkipResult(p.runner), Skipped: true})
}

// enterStopped flips the coordinator into drain mode: queued and
// retry-pending experiments are skipped now, in-flight slices finish
// and merge normally, idle workers are released.
func (d *dispatcher) enterStopped() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.queue = nil
	for i, p := range d.pend {
		if p == nil || d.merge.has(i) || p.running > 0 || p.retrying {
			continue
		}
		d.skip(i)
	}
	for _, w := range d.workers {
		if w.cur == nil {
			d.release(w)
		}
	}
}

// release closes a worker's stdin: the worker seals its stream and
// exits cleanly once its current read returns EOF.
func (d *dispatcher) release(w *workerState) {
	if w.closing {
		return
	}
	w.closing = true
	if w.in != nil {
		_ = w.in.close()
	}
	_ = w.stdin.Close()
}

// ensureWorkers respawns up to the configured shard count while backlog
// remains. A total inability to spawn with no survivors degrades to
// in-process execution — fork/exec being unavailable must cost
// throughput, never the campaign.
func (d *dispatcher) ensureWorkers() {
	if d.stopped || d.c.isKilled() {
		return
	}
	backlog := len(d.queue) > 0 || d.retries > 0
	for backlog && len(d.workers) < d.cfg.Shards {
		if err := d.spawnWorker(); err != nil {
			d.logf("shard: respawning worker: %v", err)
			break
		}
	}
	if len(d.workers) == 0 && backlog {
		d.degrade("no worker process could be (re)started")
	}
}

// dispatch assigns queued slices to idle workers, steals from
// stragglers when the queue is dry, and releases idle workers once no
// work can ever reach them.
func (d *dispatcher) dispatch() {
	if !d.stopped && d.cfg.Stop != nil && d.cfg.Stop() {
		d.enterStopped()
	}
	for _, w := range d.workers {
		if w.cur != nil || w.closing {
			continue
		}
		if d.stopped {
			d.release(w)
			continue
		}
		if len(d.queue) > 0 {
			item := d.queue[0]
			d.queue = d.queue[1:]
			d.assign(w, item, false)
			continue
		}
		if a, victimID := d.stealCandidate(); a != nil {
			remaining := d.incomplete(a.indices)
			if len(remaining) > 0 {
				d.logf("shard: worker %d stealing %d straggling experiment(s) from worker %d",
					w.id, len(remaining), victimID)
				a.stolen = true
				d.assign(w, remaining, true)
				continue
			}
		}
		if d.outstanding() == 0 {
			d.release(w)
		}
	}
}

// incomplete filters indices down to the not-yet-merged ones.
func (d *dispatcher) incomplete(indices []int) []int {
	var out []int
	for _, i := range indices {
		if d.pend[i] != nil && !d.merge.has(i) {
			out = append(out, i)
		}
	}
	return out
}

// outstanding counts experiments not yet merged or skipped.
func (d *dispatcher) outstanding() int {
	n := 0
	for i, p := range d.pend {
		if p != nil && !d.merge.has(i) {
			n++
		}
	}
	return n
}

// stealCandidate picks the oldest un-stolen slice that has aged past
// StealAfter on a still-busy worker.
func (d *dispatcher) stealCandidate() (*assignment, int) {
	var best *assignment
	bestID := -1
	now := time.Now()
	for _, w := range d.workers {
		a := w.cur
		if a == nil || a.stolen || now.Sub(a.assignedAt) < d.cfg.StealAfter {
			continue
		}
		if best == nil || a.assignedAt.Before(best.assignedAt) {
			best, bestID = a, w.id
		}
	}
	return best, bestID
}

// assign sends one slice to a worker. Primary assignments charge each
// experiment's attempt budget; speculative (stolen) copies do not — a
// steal is an optimization, not a failure.
func (d *dispatcher) assign(w *workerState, indices []int, speculative bool) {
	d.nextSeq++
	a := &assignment{seq: d.nextSeq, indices: indices, assignedAt: time.Now(), stolen: speculative}
	ids := make([]string, len(indices))
	for k, i := range indices {
		ids[k] = d.pend[i].runner.ID
		if !speculative {
			d.pend[i].attempts++
		}
		d.pend[i].running++
	}
	if err := w.in.send(tagAssign, assignMsg{Seq: a.seq, IDs: ids}); err != nil {
		// The pipe is broken: undo the accounting, requeue, and let the
		// death path reap the worker.
		for _, i := range indices {
			if !speculative {
				d.pend[i].attempts--
			}
			d.pend[i].running--
		}
		if !speculative {
			d.queue = append([][]int{indices}, d.queue...)
		}
		w.killReason = fmt.Sprintf("assignment write failed: %v", err)
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		return
	}
	w.cur = a
}

// tick is the liveness sweep: dead-silent and progress-less workers are
// killed (their exit unwinds the slice through the retry path), the
// stop hook is polled, and stalled stealing opportunities re-checked.
func (d *dispatcher) tick() {
	if !d.stopped && d.cfg.Stop != nil && d.cfg.Stop() {
		d.enterStopped()
	}
	now := time.Now()
	for _, w := range d.workers {
		if w.closing || w.killReason != "" {
			continue
		}
		if now.Sub(w.lastSeen) > d.cfg.HeartbeatTimeout {
			w.killReason = fmt.Sprintf("no heartbeat for %v", now.Sub(w.lastSeen).Round(time.Millisecond))
			_ = w.cmd.Process.Kill()
			continue
		}
		if d.cfg.ProgressTimeout > 0 && w.cur != nil && now.Sub(w.lastProgress) > d.cfg.ProgressTimeout {
			w.killReason = fmt.Sprintf("hung: no progress for %v", now.Sub(w.lastProgress).Round(time.Millisecond))
			_ = w.cmd.Process.Kill()
		}
	}
	d.dispatch()
}

// degrade runs every remaining experiment in-process through the
// resilient campaign engine — identical statuses, no worker fleet.
func (d *dispatcher) degrade(reason string) {
	d.degraded = true
	d.logf("shard: %s; running %d remaining experiment(s) in-process", reason, d.outstanding())
	var idxs []int
	var sub []experiments.Runner
	for i, p := range d.pend {
		if p == nil || d.merge.has(i) || p.running > 0 {
			continue
		}
		idxs = append(idxs, i)
		sub = append(sub, p.runner)
	}
	experiments.RunCampaign(sub, d.c.opts, experiments.Campaign{
		Parallel: d.cfg.Shards,
		Deadline: d.cfg.Deadline,
		Stop:     d.cfg.Stop,
		Emit: func(k int, st experiments.Status) {
			d.merge.offer(idxs[k], st)
		},
	})
}

// shutdown releases the fleet and reaps it: close every stdin (workers
// seal and exit on EOF), give them a grace period, then kill stragglers.
func (d *dispatcher) shutdown() {
	for _, w := range d.workers {
		d.release(w)
	}
	grace := time.After(5 * time.Second)
	killed := false
	for len(d.workers) > 0 {
		select {
		case ev := <-d.events:
			if ev.kind == evExit {
				delete(d.workers, ev.w.id)
			}
		case <-grace:
			if killed {
				return // second timeout: abandon; the waiters drain into the buffered channel
			}
			killed = true
			for _, w := range d.workers {
				if w.cmd.Process != nil {
					_ = w.cmd.Process.Kill()
				}
			}
			grace = time.After(2 * time.Second)
		}
	}
}

// deadResult synthesizes the structured FAIL for an experiment whose
// workers kept dying — the shard-level analogue of the campaign
// runner's panic/deadline/violation synthesis.
func deadResult(r experiments.Runner, attempts int, cause string) core.Result {
	res := core.Result{ID: r.ID, Title: r.Title, PaperClaim: "(worker did not complete)"}
	res.AddCheck("completed", "worker survived",
		fmt.Sprintf("worker died or hung %d time(s)", attempts), false)
	res.Note("shard: %s", cause)
	return res
}
