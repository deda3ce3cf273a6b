package antenna

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/stats"
)

// forceLUT drives enough GainDBi queries through the array to cross the
// build threshold, returning with the table in place.
func forceLUT(t *testing.T, a *PhasedArray) {
	t.Helper()
	for i := 0; i <= lutBuildThreshold+1; i++ {
		a.GainDBi(0.1)
	}
	if a.lut == nil {
		t.Fatal("LUT not built after threshold queries")
	}
}

// binCenter returns the angle at the center of the LUT bin that GainDBi
// resolves theta into.
func binCenter(theta float64) float64 {
	t := (geom.NormalizeAngle(theta) + math.Pi) / (2 * math.Pi) * lutBins
	i := int(t)
	if i < 0 {
		i = 0
	}
	if i >= lutBins {
		i = lutBins - 1
	}
	return -math.Pi + 2*math.Pi*(float64(i)+0.5)/lutBins
}

// Property: once the LUT is hot, GainDBi(θ) must equal the exact pattern
// evaluated at the center of θ's bin — for any θ, including values far
// outside [-π, π]. This pins the indexing and wrap-around math.
func TestLUTIndexingProperty(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(0.35)
	forceLUT(t, a)
	prop := func(raw float64) bool {
		theta := math.Mod(raw, 12) // exercise multiple wraps
		got := a.GainDBi(theta)
		want := a.gainExact(binCenter(theta))
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: the tabulated pattern of an imperfect, steered array never
// strays more than a fraction of a dB from the exact pattern away from
// nulls — the LUT is a cache, not an approximation the physics can feel.
func TestLUTAccuracyAwayFromNulls(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.ApplyImperfections(7, 1.0, 20)
	a.Steer(-0.6)
	forceLUT(t, a)
	checked := 0
	for i := 0; i < 2000; i++ {
		theta := -math.Pi + 2*math.Pi*float64(i)/2000
		exact := a.gainExact(theta)
		if exact < -20 { // skip nulls: unbounded slope across a bin
			continue
		}
		checked++
		if d := math.Abs(a.GainDBi(theta) - exact); d > 1.0 {
			t.Fatalf("LUT error %.2f dB at θ=%.4f (exact %.2f)", d, theta, exact)
		}
	}
	if checked < 500 {
		t.Fatalf("only %d angles above the null floor; pattern implausible", checked)
	}
}

func TestSteerInvalidatesLUT(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(0)
	forceLUT(t, a)
	before := a.GainDBi(1.0)
	a.Steer(1.0)
	if a.lut != nil {
		t.Fatal("Steer left a stale LUT in place")
	}
	after := a.gainExact(1.0)
	if after <= before {
		t.Errorf("steering toward 1.0 rad did not raise gain there: %.1f -> %.1f dBi", before, after)
	}
}

func TestSetWeightsInvalidatesLUT(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	forceLUT(t, a)
	w := make([]complex128, a.N())
	for i := range w {
		w[i] = complex(0, 1)
	}
	if err := a.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if a.lut != nil {
		t.Error("SetWeights left a stale LUT in place")
	}
}

func TestApplyImperfectionsInvalidatesLUT(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	forceLUT(t, a)
	a.ApplyImperfections(3, 1.0, 20)
	if a.lut != nil {
		t.Error("ApplyImperfections left a stale LUT in place")
	}
}

// Codebook entries must not share mutable pattern state: steering one
// entry may not disturb a neighbour's tabulated pattern.
func TestCodebookEntryLUTIndependent(t *testing.T) {
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 8)
	a, c := cb.Sectors[9].Pattern.(*PhasedArray), cb.Sectors[10].Pattern.(*PhasedArray)
	forceLUT(t, a)
	ref := a.GainDBi(0.2)
	c.Steer(-1.2)
	if got := a.GainDBi(0.2); got != ref {
		t.Errorf("steering a neighbour changed the entry: %.3f -> %.3f dBi", ref, got)
	}
	if a.lut == nil {
		t.Error("steering a neighbour dropped the entry's table")
	}
	if math.Abs(c.gainExact(-1.2)-a.gainExact(-1.2)) < 1e-9 {
		t.Error("neighbour did not steer independently")
	}
}

// purityAngles returns the probe angles of the purity tests: ±π, every
// 128th exact bin edge, and random angles over several wraps — fewer
// than lutBuildThreshold in all, so one fresh array answers every probe
// untabulated.
func purityAngles(seed uint64) []float64 {
	angles := []float64{math.Pi, -math.Pi, 0}
	for i := 0; i <= lutBins; i += 128 {
		angles = append(angles, -math.Pi+2*math.Pi*float64(i)/lutBins)
	}
	rng := stats.NewRNG(seed)
	for len(angles) < lutBuildThreshold-16 {
		angles = append(angles, rng.Range(-7, 7))
	}
	return angles
}

// GainDBi must be a pure function of pattern and angle: a fresh array
// answering untabulated, one warmed past the build threshold, and one
// served the table another instance built all return the same bits —
// the gain at the centre of the angle's bin.
func TestGainDBiPure(t *testing.T) {
	angles := purityAngles(31)
	// Three codebooks of one model and seed: separate instances of every
	// pattern, sharing keys.
	cbs := make([]*Codebook, 3)
	for i := range cbs {
		_, cbs[i] = D5000Codebook(rf.FreqChannel2Hz, 9191)
	}
	steered := func() *PhasedArray {
		a := NewD5000Array(rf.FreqChannel2Hz)
		a.ApplyImperfections(5, 1.0, 20)
		a.Steer(0.3)
		return a
	}
	cases := []struct {
		name                string
		fresh, warm, served *PhasedArray
	}{
		{"sector", sectorArray(t, cbs[0], 7), sectorArray(t, cbs[1], 7), sectorArray(t, cbs[2], 7)},
		{"quasi-omni", cbs[0].QuasiOmni[5].(*PhasedArray), cbs[1].QuasiOmni[5].(*PhasedArray), cbs[2].QuasiOmni[5].(*PhasedArray)},
		{"unkeyed", steered(), steered(), nil},
	}
	for _, c := range cases {
		want := make([]float64, len(angles))
		for k, th := range angles {
			want[k] = c.fresh.GainDBi(th)
			if oracle := c.fresh.gainExact(binCenter(th)); want[k] != oracle {
				t.Fatalf("%s θ=%v: gain %v, exact pattern at the bin centre %v", c.name, th, want[k], oracle)
			}
		}
		if c.fresh.lut != nil {
			t.Fatalf("%s: the fresh array tabulated during the probes", c.name)
		}
		forceLUT(t, c.warm)
		views := map[string]*PhasedArray{"warm": c.warm}
		if c.served != nil {
			forceLUT(t, c.served)
			if &c.served.lut[0] != &c.warm.lut[0] {
				t.Fatalf("%s: the third instance built its own table", c.name)
			}
			views["served"] = c.served
		}
		for view, a := range views {
			for k, th := range angles {
				if got := a.GainDBi(th); got != want[k] {
					t.Fatalf("%s %s θ=%v: %v, fresh array %v", c.name, view, th, got, want[k])
				}
			}
		}
	}
}

// A sweep of every codebook entry over random angles reads the same
// gains before and after each entry tabulates.
func TestSweepSectorGainsParity(t *testing.T) {
	_, cb := WiHDCodebook(rf.FreqChannel2Hz, 4242)
	pats := append([]Pattern(nil), cb.QuasiOmni...)
	for _, s := range cb.Sectors {
		pats = append(pats, s.Pattern)
	}
	angles := purityAngles(10)[:64]
	sweep := func() []float64 {
		var out []float64
		for _, p := range pats {
			for _, th := range angles {
				out = append(out, p.GainDBi(th))
			}
		}
		return out
	}
	cold := sweep()
	for _, p := range pats {
		forceLUT(t, p.(*PhasedArray))
	}
	hot := sweep()
	for i := range cold {
		if cold[i] != hot[i] {
			t.Fatalf("entry %d θ=%v: cold %v, hot %v", i/len(angles), angles[i%len(angles)], cold[i], hot[i])
		}
	}
}

// Sweeping every sector's gain allocates nothing, tabulated or not —
// the medium's training sweep relies on it.
func TestSweepSectorGainsZeroAlloc(t *testing.T) {
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 5)
	thetas := []float64{-2.1, -0.5, 0, 0.4, 1.7, 3.0}
	sum := 0.0
	sweep := func() {
		for _, s := range cb.Sectors {
			for _, th := range thetas {
				sum += s.Pattern.GainDBi(th)
			}
		}
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 20 {
			sweep()
		}
	}); n != 0 {
		t.Errorf("20 untabulated sector sweeps allocate %v times, want 0", n)
	}
	for _, s := range cb.Sectors {
		forceLUT(t, s.Pattern.(*PhasedArray))
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			sweep()
		}
	}); n != 0 {
		t.Errorf("200 tabulated sector sweeps allocate %v times, want 0", n)
	}
}

// The shared table cache stays bounded across a stream of distinct
// seeds, as a daemon running every job at a fresh seed produces, and
// emptying it on overflow changes no gain: every pattern reads the same
// as under an unbounded cache.
func TestLUTCacheBounded(t *testing.T) {
	angles := purityAngles(77)[:32]
	run := func(store *lutStore) []float64 {
		saved := lutCache
		lutCache = store
		defer func() { lutCache = saved }()
		var out []float64
		for seed := uint64(0); seed < 12; seed++ {
			// A small codebook keyed per seed, as D5000Codebook does,
			// keeps each table build cheap.
			cb := NewCodebook(NewURA(2, 1, 0.5, rf.FreqChannel2Hz), 12, 60, 0, seed)
			cb.keyLUTs(modelKey(modelD5000, rf.FreqChannel2Hz, seed))
			for _, s := range cb.Sectors {
				a := s.Pattern.(*PhasedArray)
				forceLUT(t, a)
				if n := len(store.tabs); n > store.max {
					t.Fatalf("cache holds %d tables, cap %d", n, store.max)
				}
				for _, th := range angles {
					out = append(out, a.GainDBi(th))
				}
			}
		}
		return out
	}
	capped := &lutStore{max: lutCacheMax}
	got := run(capped)
	if built := 12 * 12; built <= lutCacheMax {
		t.Fatalf("the loop builds %d tables, not enough to overflow the cap of %d", built, lutCacheMax)
	}
	want := run(&lutStore{max: math.MaxInt})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe %d: capped cache %v, unbounded %v", i, got[i], want[i])
		}
	}
}

// Sweep workers build and read shared tables concurrently, and a small
// cap makes them empty the store under each other: every reader still
// gets its pattern's exact binned gains. Run with -race.
func TestLUTCacheConcurrent(t *testing.T) {
	saved := lutCache
	lutCache = &lutStore{max: 3}
	defer func() { lutCache = saved }()
	angles := purityAngles(5)[:16]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, cb := D5000Codebook(rf.FreqChannel2Hz, 606)
			for k := 0; k < 6; k++ {
				i := (g + k) % len(cb.Sectors)
				a := cb.Sectors[i].Pattern.(*PhasedArray)
				for q := 0; q <= lutBuildThreshold; q++ {
					a.GainDBi(0.1)
				}
				for _, th := range angles {
					if got, want := a.GainDBi(th), a.gainExact(binCenter(th)); got != want {
						t.Errorf("worker %d sector %d θ=%v: %v, want %v", g, i, th, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
