package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// paperQuick runs every registered experiment, in registry order, with
// Options{Seed: 1, Quick: true} through experiments.RunCampaign, one
// experiment at a time: the reproduction users run. It ignores the
// workload seed. Seed 1 is the one GOLDEN.json pins, and at other seeds
// some experiments' statistical checks fail by design.
type paperQuick struct {
	*env
	runners  []experiments.Runner
	golden   metrics.Golden
	walls    map[string][]float64
	campaign int // recorder layer of the whole RunCampaign call
	emit     int // recorder layer of Campaign.Emit
	trace    uint64
	parent   uint64 // span of the running campaign
}

// tinyExperiments is the self-test's campaign: three cheap drivers.
var tinyExperiments = []string{"T1", "F3", "A4"}

func (w *paperQuick) setup() error {
	g, err := metrics.ReadGolden(filepath.Join(w.cfg.root, "GOLDEN.json"))
	if err != nil {
		return err
	}
	all := experiments.All()
	if w.cfg.tiny {
		all = all[:0]
		keep := g.Experiments[:0:0]
		for _, id := range tinyExperiments {
			r, ok := experiments.Get(id)
			if !ok {
				return fmt.Errorf("experiment %s is not registered", id)
			}
			all = append(all, r)
			for _, e := range g.Experiments {
				if e.ID == id {
					keep = append(keep, e)
				}
			}
		}
		g.Experiments = keep
	}
	runners := make([]experiments.Runner, len(all))
	for i, r := range all {
		runners[i] = w.timed(r)
	}
	w.golden, w.runners = g, runners
	w.walls = map[string][]float64{}
	w.campaign = w.rec.layer("experiments.campaign")
	w.emit = w.rec.layer("experiments.emit")
	// Warm-up: every experiment runs once, so the process-wide state it
	// builds lazily (shared antenna LUTs among it) costs setup_s, not the
	// first timed pass.
	for _, r := range all {
		if res := r.Run(experiments.Options{Seed: 1, Quick: true}); !res.Pass() {
			return fmt.Errorf("warm-up experiment %s failed its checks", r.ID)
		}
	}
	return nil
}

// check has nothing to compute: GOLDEN.json is the reference.
func (w *paperQuick) check(*tally) {}

func (w *paperQuick) prepare() error { return nil }

// timed wraps a runner so each run is a span under the campaign's.
func (w *paperQuick) timed(r experiments.Runner) experiments.Runner {
	layer := w.rec.layer("experiments." + r.ID)
	run := r.Run
	r.Run = func(o experiments.Options) core.Result {
		s := w.rec.begin()
		res := run(o)
		w.rec.end(layer, s, w.trace, w.parent)
		return res
	}
	return r
}

func (w *paperQuick) pass(t *tally) {
	fingerprints := make([]metrics.Experiment, 0, len(w.runners))
	t.attempt(len(w.runners))
	w.trace++
	campaign := w.rec.begin()
	w.parent = campaign.id
	emit := func(_ int, st experiments.Status) {
		s := w.rec.begin()
		id := st.Result.ID
		w.walls[id] = append(w.walls[id], st.Wall.Seconds())
		fingerprints = append(fingerprints, metrics.FromResult(st.Result))
		switch {
		case st.Failure != nil:
			t.fail("%s: %v", id, st.Failure)
		case !st.Result.Pass():
			t.fail("%s: checks failed", id)
		default:
			t.op(1, st.Wall.Seconds())
		}
		w.rec.end(w.emit, s, w.trace, campaign.id)
	}
	experiments.RunCampaign(w.runners, experiments.Options{Seed: 1, Quick: true},
		experiments.Campaign{Parallel: 1, Emit: emit})
	w.rec.end(w.campaign, campaign, w.trace, 0)
	for _, d := range metrics.Compare(w.golden, metrics.File{Experiments: fingerprints}) {
		t.fail("golden: %s", d)
	}
}

func (w *paperQuick) layers(m map[string]float64) {
	for id, ws := range w.walls {
		m["experiments."+id+".wall_s"] = median(ws)
	}
}

func (w *paperQuick) close() {}
