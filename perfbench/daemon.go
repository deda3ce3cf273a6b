package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sniffer"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// daemonCapture serves an in-process serve.Server (one job at a time,
// no shards) over loopback HTTP, with a timing vfs.FS over a directory
// of the run. Two closed-loop clients each submit a small capture-
// enabled frame-level job, wait for it to finish, fetch its report, and
// read every capture back with sniffer.TraceReader into the
// internal/trace streaming meters. Each report must equal an in-process
// RunCampaign of the same spec. Sharded jobs fork worker processes and
// are left out on purpose.
type daemonCapture struct {
	*env
	srv     *serve.Server
	hs      *httptest.Server
	fsys    *timingFS
	client  *http.Client
	data    string // the daemon's data directory
	specs   []serve.JobSpec
	refs    []string // normalized reference report per spec
	servers int      // daemons started; numbers their data directories

	mu        sync.Mutex
	queueWait []float64
	runS      []float64
	jobBytes  []float64     // vfs.job.bytes per pass; job.json holds a timestamp
	readTime  time.Duration // traced passes only
	meterTime time.Duration
	records   int64 // records read in traced passes

	submit, wait, poll, report, read, meters, job int // recorder layers
	nextTrace                                     atomic.Uint64
}

// daemonClients is the number of closed-loop clients; daemonJobs is the
// job pool a pass runs, split evenly between them.
const (
	daemonClients = 2
	daemonJobs    = 16
)

// frameExperiments are the daemon's job: small frame-level drivers, of
// which F8 and F21 write captures. F15 and F22 fail their statistical
// checks at more seeds, so they are not in the mix.
var frameExperiments = []string{"T1", "F3", "F8", "F21", "F24", "A4"}

var tinyDaemonExperiments = []string{"T1", "F8"}

func (w *daemonCapture) setup() error {
	w.submit = w.rec.layer("serve.submit")
	w.wait = w.rec.layer("serve.wait")
	w.poll = w.rec.layer("serve.poll")
	w.report = w.rec.layer("serve.report")
	w.read = w.rec.layer("sniffer.read")
	w.meters = w.rec.layer("trace.meters")
	w.job = w.rec.layer("serve.job")

	w.fsys = newTimingFS(w.rec)
	if err := w.start(); err != nil {
		return err
	}
	// Warm-up: one job end to end, so the process-wide state it builds
	// lazily exists before the first timed pass. Its outcome is not
	// checked; the timed passes check every job.
	w.specs = []serve.JobSpec{{Experiments: w.experiments(), Seed: 1, Quick: true, Tenant: "warm-up", Capture: true}}
	w.runJob(newTally(), 0, false)
	return nil
}

// prepare gives every pass a fresh daemon: a server keeps each job it
// ran, so one shared by all passes would grow the heap pass by pass.
func (w *daemonCapture) prepare() error { return w.start() }

// start replaces the daemon with a fresh one on a new data directory.
// The directory names have a fixed length because the checkpoints
// record capture paths, and their byte counts must not depend on it.
func (w *daemonCapture) start() error {
	w.close()
	w.servers++
	w.data = filepath.Join(w.work, fmt.Sprintf("daemon-%04d", w.servers))
	srv, err := serve.New(serve.Config{DataDir: w.data, Jobs: 1, FS: w.fsys})
	if err != nil {
		return err
	}
	srv.Start()
	w.srv = srv
	w.hs = httptest.NewServer(srv.Handler())
	w.client = w.hs.Client()
	return nil
}

func (w *daemonCapture) experiments() []string {
	if w.cfg.tiny {
		return tinyDaemonExperiments
	}
	return frameExperiments
}

// check draws the job specs from the seed and runs each one's campaign
// in-process, with captures, as the reference its daemon report must
// equal. A spec whose campaign fails an experiment's statistical check
// (about one seed in a hundred for T1 or F8) is skipped, so every job of
// the workload is expected to reach done.
func (w *daemonCapture) check(t *tally) {
	n := daemonJobs
	if w.cfg.tiny {
		n = daemonClients
	}
	rng := w.rng(30)
	w.specs, w.refs = nil, nil
	for k := 0; len(w.specs) < n; k++ {
		if k == 4*n {
			t.fail("only %d of %d drawn job specs pass in-process", len(w.specs), k)
			return
		}
		spec := serve.JobSpec{
			Experiments: w.experiments(),
			Seed:        rng.Uint64N(1 << 32),
			Quick:       true,
			Tenant:      fmt.Sprintf("tenant-%d", rng.IntN(4)),
			Capture:     true,
		}
		refDir := filepath.Join(w.work, "ref", strconv.Itoa(k))
		if err := os.MkdirAll(refDir, 0o755); err != nil {
			t.fail("reference %d: %v", k, err)
			return
		}
		var runners []experiments.Runner
		for _, id := range spec.Experiments {
			r, ok := experiments.Get(id)
			if !ok {
				t.fail("experiment %s is not registered", id)
				return
			}
			runners = append(runners, r)
		}
		var rep strings.Builder
		opts := experiments.Options{Seed: serve.EffectiveSeed(spec.Tenant, spec.Seed), Quick: true, CaptureDir: refDir}
		if failed := experiments.RunCampaign(runners, opts, experiments.Campaign{Parallel: 1, Emit: func(_ int, st experiments.Status) {
			rep.WriteString(st.Result.String())
			rep.WriteByte('\n')
		}}); failed > 0 {
			continue
		}
		w.specs = append(w.specs, spec)
		w.refs = append(w.refs, normalizeReport(rep.String(), refDir))
	}
}

// normalizeReport replaces the capture directory in a report's capture
// notes and drops wall-time lines, so reports of the same campaign
// written to different directories compare equal.
func normalizeReport(report, captureDir string) string {
	report = strings.ReplaceAll(report, captureDir+string(filepath.Separator), "<capture-dir>/")
	var b strings.Builder
	for _, line := range strings.SplitAfter(report, "\n") {
		if !strings.Contains(line, "wall time") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func (w *daemonCapture) pass(t *tally) {
	before := w.fsys.snapshot()
	var wg sync.WaitGroup
	var records atomic.Int64
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(w.specs); k += daemonClients {
				records.Add(w.runJob(t, k, true))
			}
		}(c)
	}
	wg.Wait()
	for name, v := range w.fsys.snapshot().since(before) {
		if exact(name) {
			t.count(name, v)
			continue
		}
		w.mu.Lock()
		w.jobBytes = append(w.jobBytes, float64(v))
		w.mu.Unlock()
	}
	t.count("sniffer.read.records", records.Load())
}

// runJob drives one job through the daemon and returns the capture
// records it read back. With verify it checks the report against the
// reference and reads the captures back.
func (w *daemonCapture) runJob(t *tally, k int, verify bool) int64 {
	t.attempt(1)
	tr := w.nextTrace.Add(1)
	job := w.rec.begin()
	defer w.rec.end(w.job, job, tr, 0)

	body, err := json.Marshal(w.specs[k])
	if err != nil {
		t.fail("job spec %d: %v", k, err)
		return 0
	}
	t0 := time.Now()
	s := w.rec.begin()
	var snap serve.Snapshot
	err = w.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &snap)
	w.rec.end(w.submit, s, tr, job.id)
	if err != nil {
		t.fail("submit job spec %d: %v", k, err)
		return 0
	}
	id := snap.ID
	s = w.rec.begin()
	err = w.call(http.MethodGet, "/v1/jobs/"+id+"/events", nil, http.StatusOK, nil)
	w.rec.end(w.wait, s, tr, job.id)
	if err != nil {
		t.fail("%s: waiting: %v", id, err)
		return 0
	}
	latency := time.Since(t0).Seconds()

	s = w.rec.begin()
	err = w.call(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &snap)
	w.rec.end(w.poll, s, tr, job.id)
	if err != nil {
		t.fail("%s: status: %v", id, err)
		return 0
	}
	if snap.State != serve.StateDone || snap.Started == nil || snap.Finished == nil {
		t.fail("%s: state %s (%s), want done", id, snap.State, snap.Diagnostic)
		return 0
	}
	if verify {
		w.mu.Lock()
		w.queueWait = append(w.queueWait, snap.Started.Sub(snap.Created).Seconds())
		w.runS = append(w.runS, snap.Finished.Sub(*snap.Started).Seconds())
		w.mu.Unlock()
	}

	var report bytes.Buffer
	s = w.rec.begin()
	err = w.call(http.MethodGet, "/v1/jobs/"+id+"/report", nil, http.StatusOK, &report)
	w.rec.end(w.report, s, tr, job.id)
	if err != nil {
		t.fail("%s: report: %v", id, err)
		return 0
	}
	jobDir := filepath.Join(w.data, "jobs", id)
	if !verify {
		return 0
	}
	if got := normalizeReport(report.String(), jobDir); got != w.refs[k] {
		t.fail("%s: report differs from the in-process campaign of the same spec", id)
		return 0
	}
	n, err := w.readCaptures(report.String(), tr, job.id)
	if err != nil {
		t.fail("%s: %v", id, err)
		return n
	}
	t.op(1, latency)
	// Finished jobs keep nothing the daemon reads again; free the disk.
	os.RemoveAll(jobDir)
	return n
}

// captureNote matches the note a capture-enabled experiment adds.
var captureNote = regexp.MustCompile(`note: capture: (\d+) records \((\d+) bytes\) → (\S+)`)

// readCaptures reads every capture a report names back through the
// trace reader, then feeds the records to the streaming meters. Each
// capture must be complete and hold the record count its note states.
func (w *daemonCapture) readCaptures(report string, tr, parent uint64) (int64, error) {
	notes := captureNote.FindAllStringSubmatch(report, -1)
	if len(notes) == 0 {
		return 0, fmt.Errorf("report names no capture")
	}
	var total int64
	var obs []sniffer.Observation
	for _, m := range notes {
		want, _ := strconv.ParseInt(m[1], 10, 64)
		path := m[3]
		s := w.rec.begin()
		f, err := w.fsys.Open(path)
		if err != nil {
			return total, err
		}
		rd, err := sniffer.NewTraceReader(f)
		if err != nil {
			f.Close()
			return total, fmt.Errorf("%s: %w", path, err)
		}
		obs = obs[:0]
		for {
			o, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return total, fmt.Errorf("%s: %w", path, err)
			}
			obs = append(obs, o)
		}
		f.Close()
		readD := w.rec.end(w.read, s, tr, parent)
		total += int64(len(obs))
		if rd.Truncated() {
			return total, fmt.Errorf("%s: capture is truncated", path)
		}
		if int64(len(obs)) != want {
			return total, fmt.Errorf("%s: read %d records, note says %d", path, len(obs), want)
		}

		s = w.rec.begin()
		busy := trace.NewBusyMeter(sniffer.AmplitudeFromPower(-72), 0)
		occ := trace.NewOccupancyMeter(0, time.Millisecond)
		var data trace.DataSampler
		var coll trace.CollisionCounter
		var end time.Duration
		for _, o := range obs {
			busy.Capture(o)
			occ.Capture(o)
			data.Capture(o)
			coll.Capture(o)
			if o.End > end {
				end = o.End
			}
		}
		ratio, occupancy := busy.Ratio(end), occ.Occupancy(end)
		meterD := w.rec.end(w.meters, s, tr, parent)
		if !(ratio >= 0 && ratio <= 1 && occupancy >= 0 && occupancy <= 1) || coll.Collided > data.Count() {
			return total, fmt.Errorf("%s: meters out of range (busy %v, occupancy %v)", path, ratio, occupancy)
		}
		if readD > 0 {
			w.mu.Lock()
			w.readTime += readD
			w.meterTime += meterD
			w.records += int64(len(obs))
			w.mu.Unlock()
		}
	}
	return total, nil
}

// call makes one API request and decodes a JSON response into out (or
// copies the body into a *bytes.Buffer; out nil discards it).
func (w *daemonCapture) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, w.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	switch out := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *bytes.Buffer:
		_, err = io.Copy(out, resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return err
}

func (w *daemonCapture) layers(m map[string]float64) {
	m["serve.submit.ms"] = w.rec.mean(w.submit, time.Millisecond)
	m["serve.poll.ms"] = w.rec.mean(w.poll, time.Millisecond)
	m["serve.report.ms"] = w.rec.mean(w.report, time.Millisecond)
	w.mu.Lock()
	defer w.mu.Unlock()
	m["serve.queue_wait_s"] = median(w.queueWait)
	m["serve.run_s"] = median(w.runS)
	m["vfs.job.bytes"] = median(w.jobBytes)
	if w.records > 0 {
		krec := float64(w.records) / 1000
		m["sniffer.read.us_per_krec"] = float64(w.readTime) / float64(time.Microsecond) / krec
		m["trace.meters.us_per_krec"] = float64(w.meterTime) / float64(time.Microsecond) / krec
	}
	for i, k := range vfsKinds {
		m["vfs."+k+".sync_ms"] = w.rec.mean(w.fsys.syncLayer[i], time.Millisecond)
	}
	m["vfs.syncdir.ms"] = w.rec.mean(w.fsys.syncDirLayer, time.Millisecond)
}

func (w *daemonCapture) close() {
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
		os.RemoveAll(w.data)
	}
}

// timingFS is the vfs.FS the daemon writes through: it counts writes,
// bytes and syncs per kind of file and times syncs in traced passes.
type timingFS struct {
	vfs.FS
	rec          *recorder
	writes       [3]atomic.Int64
	bytes        [3]atomic.Int64
	syncs        [3]atomic.Int64
	syncDirs     atomic.Int64
	renames      atomic.Int64
	syncLayer    [3]int
	syncDirLayer int
}

func newTimingFS(rec *recorder) *timingFS {
	f := &timingFS{FS: vfs.OS(), rec: rec, syncDirLayer: rec.layer("vfs.syncdir")}
	for i, k := range vfsKinds {
		f.syncLayer[i] = rec.layer("vfs." + k + ".sync")
	}
	return f
}

// fileKind classifies a path as a checkpoint, a capture or a job record
// (job.json, report.txt), including their temp files.
func fileKind(name string) int {
	base := strings.TrimSuffix(filepath.Base(name), ".tmp")
	switch {
	case strings.HasPrefix(base, experiments.CheckpointFile):
		return 0
	case strings.HasSuffix(base, ".vubiq"):
		return 1
	}
	return 2
}

func (f *timingFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, kind: fileKind(name)}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	f.renames.Add(1)
	return f.FS.Rename(oldpath, newpath)
}

func (f *timingFS) SyncDir(name string) error {
	f.syncDirs.Add(1)
	s := f.rec.begin()
	err := f.FS.SyncDir(name)
	f.rec.end(f.syncDirLayer, s, 0, 0)
	return err
}

// fsCounts is a snapshot of the counters, keyed by metric name.
type fsCounts map[string]int64

func (f *timingFS) snapshot() fsCounts {
	c := fsCounts{
		"vfs.syncdir.calls": f.syncDirs.Load(),
		"vfs.rename.calls":  f.renames.Load(),
	}
	for i, k := range vfsKinds {
		c["vfs."+k+".writes"] = f.writes[i].Load()
		c["vfs."+k+".bytes"] = f.bytes[i].Load()
		c["vfs."+k+".syncs"] = f.syncs[i].Load()
	}
	return c
}

func (c fsCounts) since(before fsCounts) fsCounts {
	d := fsCounts{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

type timingFile struct {
	vfs.File
	fs   *timingFS
	kind int
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes[f.kind].Add(1)
	f.fs.bytes[f.kind].Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	f.fs.syncs[f.kind].Add(1)
	s := f.fs.rec.begin()
	err := f.File.Sync()
	f.fs.rec.end(f.fs.syncLayer[f.kind], s, 0, 0)
	return err
}
