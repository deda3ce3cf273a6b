// Package serve is the mmsimd simulation-as-a-service layer: an HTTP
// job daemon wrapped around the experiment campaign engine. Clients
// submit campaign jobs as JSON, the server validates them against the
// experiment registry, queues them through a bounded priority queue
// with admission control, and runs each on the shared worker pool via
// experiments.RunCampaign. Every job persists its progress through the
// campaign checkpoint machinery under its own directory, so a killed
// daemon resumes all in-flight jobs byte-identically on restart.
package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// JobSpec is the client-submitted description of one campaign job — the
// JSON body of POST /v1/jobs.
type JobSpec struct {
	// Experiments lists experiment IDs ("T1", "F9", ...) or the single
	// entry "all". Validated against the registry at submission.
	Experiments []string `json:"experiments"`
	// Seed drives all randomness within the tenant's namespace.
	Seed uint64 `json:"seed"`
	// Quick selects the reduced-cost fidelity (mmsim -quick).
	Quick bool `json:"quick,omitempty"`
	// Tenant namespaces the RNG seed: two tenants submitting the same
	// spec get decorrelated — but individually reproducible — campaigns
	// (the effective seed is a ForkAt substream of the tenant's hash).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue; higher runs sooner, FIFO within a
	// tier.
	Priority int `json:"priority,omitempty"`
	// Deadline bounds the whole job's wall-clock time as a Go duration
	// string ("90s", "5m"). Once exceeded, unstarted experiments are
	// skipped and the job fails; in-flight ones still finish and
	// checkpoint. Empty means unlimited.
	Deadline string `json:"deadline,omitempty"`
	// Capture streams each sniffer-based experiment's raw .vubiq trace
	// into the job directory.
	Capture bool `json:"capture,omitempty"`
	// Shards fans the job's campaign across this many worker processes
	// (internal/shard): crashed or hung workers are retried and the
	// merged report stays byte-identical to an in-process run. 0 keeps
	// the job in-process. Bounded by maxShards at submission.
	Shards int `json:"shards,omitempty"`
}

// maxShards bounds JobSpec.Shards: a cap on per-job process fan-out so
// one submission cannot fork-bomb the daemon host.
const maxShards = 64

// decodeJobSpec reads and validates a submitted job spec: strict JSON
// (unknown fields are refused), experiment IDs checked against the
// registry through lookup and expanded to registry keys ("all" becomes
// allIDs()), a parseable non-negative deadline, and shards within
// [0, maxShards].
func decodeJobSpec(r io.Reader, lookup func(string) bool, allIDs func() []string) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	ids, err := expandIDs(spec.Experiments, lookup, allIDs)
	if err != nil {
		return JobSpec{}, err
	}
	spec.Experiments = ids
	if _, err := spec.deadline(); err != nil {
		return JobSpec{}, err
	}
	if spec.Shards < 0 || spec.Shards > maxShards {
		return JobSpec{}, fmt.Errorf("shards %d out of range [0, %d]", spec.Shards, maxShards)
	}
	return spec, nil
}

// deadline parses the job's wall-clock budget.
func (s JobSpec) deadline() (time.Duration, error) {
	if s.Deadline == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s.Deadline)
	if err != nil {
		return 0, fmt.Errorf("deadline %q is not a duration", s.Deadline)
	}
	if d < 0 {
		return 0, fmt.Errorf("deadline %q is negative", s.Deadline)
	}
	return d, nil
}

// EffectiveSeed layers the per-tenant RNG namespace onto the submitted
// seed: the seed actually handed to the experiment drivers is drawn
// from the Seed-th indexed substream (stats.RNG.ForkAt) of the tenant
// hash's generator. Deterministic in (tenant, seed), so a restarted
// daemon recomputes the identical value and resumes the same campaign.
func EffectiveSeed(tenant string, seed uint64) uint64 {
	if tenant == "" {
		return seed
	}
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return stats.NewRNG(h.Sum64()).ForkAt(seed).Uint64()
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker (also the state a
	// drained or killed daemon's in-flight jobs return to on restart).
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the campaign.
	StateRunning JobState = "running"
	// StateDone: every experiment completed and passed.
	StateDone JobState = "done"
	// StateFailed: the campaign completed with failing experiments, hit
	// its deadline, or could not run at all.
	StateFailed JobState = "failed"
	// StateCanceled: the client canceled the job before it completed.
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the server-side record of one submitted campaign.
type Job struct {
	ID string
	// Spec is the submission as accepted.
	Spec JobSpec
	// EffSeed is the tenant-namespaced seed the drivers actually run
	// with.
	EffSeed uint64
	// seq breaks priority ties FIFO.
	seq uint64

	// canceled flips when the client cancels; polled between
	// experiments via Campaign.Stop.
	canceled atomic.Bool
	// events is the job's NDJSON progress stream.
	events *eventLog

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	failed   int
	resumed  int
	skipped  int
	results  []metrics.Experiment
	report   string
	diag     string
}

// Snapshot is the JSON view of a job served by GET /v1/jobs/{id}.
type Snapshot struct {
	ID            string               `json:"id"`
	State         JobState             `json:"state"`
	Spec          JobSpec              `json:"spec"`
	EffectiveSeed uint64               `json:"effective_seed"`
	Created       time.Time            `json:"created"`
	Started       *time.Time           `json:"started,omitempty"`
	Finished      *time.Time           `json:"finished,omitempty"`
	Failed        int                  `json:"failed_experiments"`
	Resumed       int                  `json:"resumed_experiments"`
	Skipped       int                  `json:"skipped_experiments,omitempty"`
	Results       []metrics.Experiment `json:"results,omitempty"`
	Diagnostic    string               `json:"diagnostic,omitempty"`
}

// snapshot copies the job under its lock.
func (j *Job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:            j.ID,
		State:         j.state,
		Spec:          j.Spec,
		EffectiveSeed: j.EffSeed,
		Created:       j.created,
		Failed:        j.failed,
		Resumed:       j.resumed,
		Skipped:       j.skipped,
		Results:       j.results,
		Diagnostic:    j.diag,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// jobFile is the durable per-job record (<jobdir>/job.json): everything
// a restarted daemon needs to resume the job byte-identically. State
// transitions rewrite it atomically.
type jobFile struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	EffSeed uint64    `json:"effective_seed"`
	State   JobState  `json:"state"`
	Created time.Time `json:"created"`
	Failed  int       `json:"failed_experiments,omitempty"`
	Resumed int       `json:"resumed_experiments,omitempty"`
	Diag    string    `json:"diagnostic,omitempty"`
}

const (
	jobFileName    = "job.json"
	reportFileName = "report.txt"
)

// persist writes the job's durable record atomically — temp file,
// fsync, rename, parent-dir fsync (vfs.WriteFileAtomic) — so neither a
// SIGKILL nor a power cut can leave a torn or empty job.json behind.
func (j *Job) persist(fsys vfs.FS, dir string) error {
	j.mu.Lock()
	jf := jobFile{
		ID:      j.ID,
		Spec:    j.Spec,
		EffSeed: j.EffSeed,
		State:   j.state,
		Created: j.created,
		Failed:  j.failed,
		Resumed: j.resumed,
		Diag:    j.diag,
	}
	j.mu.Unlock()
	data, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fsys, filepath.Join(dir, jobFileName), append(data, '\n'))
}

// loadJob reconstructs a job from its durable record. Jobs that were
// queued or running when the daemon died come back as queued — their
// campaign checkpoint replays everything they had finished.
func loadJob(fsys vfs.FS, dir string) (*Job, error) {
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, jobFileName))
	if err != nil {
		return nil, err
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, jobFileName), err)
	}
	j := &Job{
		ID:      jf.ID,
		Spec:    jf.Spec,
		EffSeed: jf.EffSeed,
		events:  newEventLog(),
		state:   jf.State,
		created: jf.Created,
		failed:  jf.Failed,
		resumed: jf.Resumed,
		diag:    jf.Diag,
	}
	if !j.state.terminal() {
		j.state = StateQueued
	}
	if j.state.terminal() {
		// A finished job's report is its durable output; reload it so
		// GET /v1/jobs/{id}/report survives restarts.
		if rep, err := vfs.ReadFile(fsys, filepath.Join(dir, reportFileName)); err == nil {
			j.report = string(rep)
		}
		j.events.close()
	}
	return j, nil
}

// eventLog is a job's append-only NDJSON progress stream. Readers
// (GET /v1/jobs/{id}/events) tail it concurrently with the writer: each
// append swaps a fresh "changed" channel and closes the old one, which
// wakes every blocked streamer without a broadcast lock dance.
type eventLog struct {
	mu      sync.Mutex
	lines   []string
	done    bool
	changed chan struct{}
}

func newEventLog() *eventLog {
	return &eventLog{changed: make(chan struct{})}
}

// Event is one NDJSON progress record.
type Event struct {
	// Event discriminates the record: "state", "experiment", "done".
	Event string `json:"event"`
	// State is the job's lifecycle phase ("state" and "done" events).
	State JobState `json:"state,omitempty"`
	// ID names the experiment ("experiment" events).
	ID string `json:"id,omitempty"`
	// Pass, Resumed, Skipped qualify an experiment outcome.
	Pass    bool `json:"pass,omitempty"`
	Resumed bool `json:"resumed,omitempty"`
	Skipped bool `json:"skipped,omitempty"`
	// WallMS is the experiment's wall-clock cost in milliseconds.
	WallMS int64 `json:"wall_ms,omitempty"`
	// Series carries the experiment's metric series fingerprints.
	Series []metrics.Series `json:"series,omitempty"`
	// Failed is the campaign's failing-experiment count ("done").
	Failed int `json:"failed,omitempty"`
	// Detail carries a diagnostic on failure.
	Detail string `json:"detail,omitempty"`
}

// append marshals and appends one event, waking all streamers.
func (l *eventLog) append(e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return // Event contains only marshalable fields
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.lines = append(l.lines, string(data))
	close(l.changed)
	l.changed = make(chan struct{})
}

// close marks the stream complete, ending every tail.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	close(l.changed)
	l.changed = make(chan struct{})
}

// tail returns the lines from index from on, whether the stream is
// complete, and a channel that closes on the next change. Streamers
// loop: drain, write, wait.
func (l *eventLog) tail(from int) (lines []string, done bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < len(l.lines) {
		lines = l.lines[from:]
	}
	return lines, l.done, l.changed
}

// expandIDs validates the requested experiment list against the
// registry, expanding the "all" shorthand. Returned IDs are upper-cased
// registry keys in deterministic order.
func expandIDs(req []string, lookup func(string) bool, all func() []string) ([]string, error) {
	if len(req) == 0 {
		return nil, fmt.Errorf("experiments list is empty")
	}
	if len(req) == 1 && strings.EqualFold(req[0], "all") {
		return all(), nil
	}
	out := make([]string, 0, len(req))
	seen := make(map[string]bool, len(req))
	for _, id := range req {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !lookup(id) {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("experiment %q listed twice", id)
		}
		seen[id] = true
		out = append(out, id)
	}
	return out, nil
}
