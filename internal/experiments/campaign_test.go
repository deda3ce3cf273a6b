package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// campaignFingerprint renders everything the CLI would print about a
// campaign, minus wall-clock times — the byte-identity surface for the
// resume guarantee.
func campaignFingerprint(sts []Status) string {
	out := ""
	for _, st := range sts {
		out += st.Result.String() + "\n"
	}
	return out
}

func collectStatuses(runners []Runner, opts Options, c Campaign) []Status {
	sts := make([]Status, len(runners))
	c.Emit = func(i int, st Status) { sts[i] = st }
	RunCampaign(runners, opts, c)
	return sts
}

func testRunners(t *testing.T) []Runner {
	t.Helper()
	var rs []Runner
	for _, id := range []string{"T1", "F24", "X1"} {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		rs = append(rs, r)
	}
	return rs
}

// The resume guarantee: interrupting a campaign after any prefix and
// resuming from the checkpoint must reproduce the uninterrupted
// campaign's output byte for byte.
func TestCheckpointResumeIsByteIdentical(t *testing.T) {
	runners := testRunners(t)
	opts := Options{Seed: 3, Quick: true}

	uninterrupted := collectStatuses(runners, opts, Campaign{Parallel: 2})
	want := campaignFingerprint(uninterrupted)

	dir := t.TempDir()
	// First leg: run only the first experiment, checkpoint it, "crash"
	// (close without finishing the campaign).
	ck, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	collectStatuses(runners[:1], opts, Campaign{Parallel: 1, Checkpoint: ck})
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Second leg: resume over the full list.
	ck2, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("resumed checkpoint holds %d results, want 1", ck2.Len())
	}
	resumed := collectStatuses(runners, opts, Campaign{Parallel: 2, Checkpoint: ck2})
	if !resumed[0].Resumed {
		t.Error("first experiment was re-run despite the checkpoint")
	}
	for _, st := range resumed[1:] {
		if st.Resumed {
			t.Error("unfinished experiment reported as resumed")
		}
	}
	if got := campaignFingerprint(resumed); got != want {
		t.Errorf("resumed campaign output differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// A checkpoint written under different options must be ignored: resume
// never serves stale results.
func TestCheckpointFingerprintMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	optsA := Options{Seed: 3, Quick: true}
	ck, err := OpenCheckpoint(dir, optsA)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(core.Result{ID: "T1", Title: "stale"}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(dir, Options{Seed: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 0 {
		t.Errorf("checkpoint from seed 3 served %d results to seed 4", ck2.Len())
	}
}

// A checkpoint torn mid-record (SIGKILL during a write) must salvage
// every complete record and keep working.
func TestCheckpointSalvagesTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 5, Quick: true}
	ck, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(core.Result{ID: "T1", Title: "done", Notes: []string{"kept"}}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(core.Result{ID: "F24", Title: "torn"}); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: no Close (no footer), and the last record loses
	// its tail bytes.
	path := filepath.Join(dir, CheckpointFile)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("salvaged %d results, want 1", ck2.Len())
	}
	if res, ok := ck2.Done("T1"); !ok || len(res.Notes) != 1 || res.Notes[0] != "kept" {
		t.Errorf("salvaged record damaged: %+v", res)
	}
	if _, ok := ck2.Done("F24"); ok {
		t.Error("torn record served as complete")
	}
}

// Resuming over a checkpoint written with different options must fail
// loudly instead of silently re-running the campaign from scratch.
func TestResumeCheckpointRejectsForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record(core.Result{ID: "T1", Title: "seed-3 result"}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ResumeCheckpoint(dir, Options{Seed: 4, Quick: true}, []string{"T1"})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume across seeds: err = %v, want ErrCheckpointMismatch", err)
	}
	// The rejected checkpoint must survive intact: re-opening with the
	// matching options still finds the record.
	ck2, err := ResumeCheckpoint(dir, Options{Seed: 3, Quick: true}, []string{"T1"})
	if err != nil {
		t.Fatalf("matching resume failed after rejected one: %v", err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Errorf("rejected resume damaged the checkpoint: %d records left, want 1", ck2.Len())
	}
}

// Resuming with a runner set that no longer covers the recorded
// experiments must fail: the user is pointing -resume at the wrong
// campaign.
func TestResumeCheckpointRejectsForeignRunnerSet(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 3, Quick: true}
	ck, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "F24"} {
		if err := ck.Record(core.Result{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ResumeCheckpoint(dir, opts, []string{"T1", "X1"})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume with shrunk runner set: err = %v, want ErrCheckpointMismatch", err)
	}
	// A superset is fine: resuming "run all" over a partial checkpoint
	// is the normal recovery path.
	ck2, err := ResumeCheckpoint(dir, opts, []string{"T1", "F24", "X1"})
	if err != nil {
		t.Fatalf("superset resume rejected: %v", err)
	}
	ck2.Close()
	// A missing checkpoint is not an error either (killed before the
	// first record).
	ck3, err := ResumeCheckpoint(t.TempDir(), opts, []string{"T1"})
	if err != nil {
		t.Fatalf("resume with no checkpoint file: %v", err)
	}
	ck3.Close()
}

// The SIGTERM story: sealing the checkpoint while records are being
// written must never tear a record — Close waits for the in-flight
// write, later Records fail cleanly, and the sealed file loads whole.
func TestCheckpointSealIsConcurrentlySafeAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 7, Quick: true}
	ck, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wrote, rejected int
	go func() {
		defer close(stop)
		for i := 0; ; i++ {
			err := ck.Record(core.Result{ID: fmt.Sprintf("Z%d", i), Notes: []string{"payload payload payload"}})
			if err != nil {
				rejected++
				return
			}
			wrote++
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := ck.Close(); err != nil {
		t.Fatalf("Close during writes: %v", err)
	}
	<-stop
	if err := ck.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if rejected != 1 {
		t.Errorf("writer saw %d rejections after seal, want exactly 1", rejected)
	}
	ck2, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != wrote {
		t.Errorf("sealed checkpoint holds %d records, writer flushed %d", ck2.Len(), wrote)
	}
}

// Campaign.Stop must skip every experiment that has not started, leave
// skipped results out of the checkpoint, and let a later resume run
// them for real.
func TestCampaignStopSkipsUnstartedAndResumesLater(t *testing.T) {
	runners := testRunners(t)
	opts := Options{Seed: 3, Quick: true}
	want := campaignFingerprint(collectStatuses(runners, opts, Campaign{Parallel: 2}))

	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int64
	sts := make([]Status, len(runners))
	c := Campaign{
		Parallel:   1,
		Checkpoint: ck,
		// Let exactly one experiment through, then stop the campaign.
		Stop: func() bool { return started.Add(1) > 1 },
		Emit: func(i int, st Status) { sts[i] = st },
	}
	RunCampaign(runners, opts, c)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	// Which runner won the single worker slot is scheduling-dependent;
	// what matters is that exactly one ran, the rest were skipped with
	// failing placeholders, and only the one that ran was checkpointed.
	ranID := ""
	skipped := 0
	for _, st := range sts {
		if st.Skipped {
			skipped++
			if st.Result.Pass() {
				t.Errorf("skipped experiment %s reports PASS", st.Result.ID)
			}
			continue
		}
		ranID = st.Result.ID
	}
	if skipped != len(runners)-1 {
		t.Fatalf("%d experiments skipped after stop, want %d", skipped, len(runners)-1)
	}

	ck2, err := ResumeCheckpoint(dir, opts, []string{"T1", "F24", "X1"})
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("checkpoint holds %d records after stop, want only the started one", ck2.Len())
	}
	resumed := collectStatuses(runners, opts, Campaign{Parallel: 2, Checkpoint: ck2})
	for i, st := range resumed {
		if st.Result.ID == ranID && !st.Resumed {
			t.Errorf("experiment %s re-ran on resume despite its checkpoint record", runners[i].ID)
		}
	}
	if got := campaignFingerprint(resumed); got != want {
		t.Errorf("stop-then-resume output differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// One experiment panicking or blowing its deadline must not stop the
// others, and both failure modes must surface as structured FAIL
// results.
func TestCampaignIsolatesCrashesAndDeadlines(t *testing.T) {
	good, ok := Get("T1")
	if !ok {
		t.Fatal("T1 not registered")
	}
	runners := []Runner{
		{ID: "Z1", Title: "panics", Run: func(Options) core.Result { panic("driver bug") }},
		good,
		{ID: "Z2", Title: "wedges", Run: func(Options) core.Result {
			s := sim.NewScheduler() // inherits the campaign deadline
			var tick func()
			tick = func() { s.After(time.Nanosecond, tick) }
			s.After(0, tick)
			s.Run(time.Hour)
			return core.Result{ID: "Z2"}
		}},
	}
	sts := collectStatuses(runners, Options{Seed: 1, Quick: true}, Campaign{
		Parallel: 2,
		Deadline: 30 * time.Millisecond,
	})
	if sts[0].Failure == nil || sts[0].Result.Pass() {
		t.Errorf("panicking driver not reported as failure: %+v", sts[0].Result)
	}
	if sts[1].Failure != nil || !sts[1].Result.Pass() {
		t.Errorf("healthy experiment harmed by its neighbours: %+v", sts[1].Result)
	}
	if sts[2].Failure == nil {
		t.Fatalf("deadlined driver not isolated: %+v", sts[2].Result)
	}
	var de *sim.DeadlineError
	if !failureAs(sts[2].Failure, &de) {
		t.Errorf("deadline failure misclassified: %v", sts[2].Failure)
	}
}
