package antenna

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rf"
)

func TestIsotropic(t *testing.T) {
	var iso Isotropic
	for _, a := range []float64{-3, -1, 0, 1, 3} {
		if iso.GainDBi(a) != 0 {
			t.Fatalf("Isotropic gain at %v != 0", a)
		}
	}
}

func TestHornShape(t *testing.T) {
	h := MeasurementHorn()
	if g := h.GainDBi(0); g != 25 {
		t.Errorf("peak = %v", g)
	}
	// 3 dB down at half the HPBW off boresight.
	half := geom.Rad(h.HPBWDeg / 2)
	if g := h.GainDBi(half); math.Abs(g-22) > 0.01 {
		t.Errorf("gain at HPBW/2 = %v, want 22", g)
	}
	// Far off boresight: floored.
	if g := h.GainDBi(math.Pi); g != backLobeFloorDBi {
		t.Errorf("back lobe = %v", g)
	}
	// Symmetric.
	if h.GainDBi(0.2) != h.GainDBi(-0.2) {
		t.Error("horn pattern should be symmetric")
	}
}

func TestHornMonotoneOffBoresight(t *testing.T) {
	h := MeasurementHorn()
	prev := math.Inf(1)
	for d := 0.0; d < math.Pi; d += 0.01 {
		g := h.GainDBi(d)
		if g > prev+1e-12 {
			t.Fatalf("gain increased at %v", d)
		}
		prev = g
	}
}

func TestOpenWaveguideWide(t *testing.T) {
	ow := OpenWaveguide()
	horn := MeasurementHorn()
	// The open waveguide must be far less directive than the horn: at 45°
	// off boresight it still hears well.
	if ow.GainDBi(geom.Rad(45)) < horn.GainDBi(geom.Rad(45))+5 {
		t.Error("open waveguide should dominate horn at wide angles")
	}
}

func TestOriented(t *testing.T) {
	h := Horn{PeakGainDBi: 20, HPBWDeg: 20}
	o := Oriented{Pattern: h, Boresight: math.Pi / 2}
	if g := o.GainDBi(math.Pi / 2); g != 20 {
		t.Errorf("peak via orientation = %v", g)
	}
	if o.GainDBi(0) >= 10 {
		t.Error("off-axis should be attenuated")
	}
	f := o.GainFunc()
	if f(math.Pi/2) != 20 {
		t.Error("GainFunc mismatch")
	}
}

func TestURAGeometry(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	if a.N() != 16 {
		t.Fatalf("N = %d", a.N())
	}
	wl := rf.Wavelength(rf.FreqChannel2Hz)
	// Extent of the 8-column steering axis (local Y): 7 · λ/2.
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, e := range a.Elements {
		minY = math.Min(minY, e.Y)
		maxY = math.Max(maxY, e.Y)
	}
	if math.Abs((maxY-minY)-3.5*wl) > 1e-12 {
		t.Errorf("aperture = %v, want %v", maxY-minY, 3.5*wl)
	}
}

func TestArrayPeakGain(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.PhaseBits = 0 // ideal phases for this check
	a.Steer(0)
	got := a.GainDBi(0)
	want := a.ElementGainDBi + 10*math.Log10(16)
	if math.Abs(got-want) > 0.1 {
		t.Errorf("broadside gain = %v, want %v", got, want)
	}
}

func TestSteeredBeamPointsWhereTold(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	for _, deg := range []float64{-45, -20, 0, 20, 45} {
		a.Steer(geom.Rad(deg))
		m := Analyze(a, 720)
		if math.Abs(geom.Deg(m.PeakAngle)-deg) > 6 {
			t.Errorf("steered %v°, peak at %v°", deg, geom.Deg(m.PeakAngle))
		}
	}
}

func TestDirectionalHPBWUnder20Deg(t *testing.T) {
	// Paper, Fig. 17: data-transmission patterns have HPBW below 20°.
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(0)
	m := Analyze(a, 1440)
	if m.HPBWDeg >= 20 || m.HPBWDeg < 5 {
		t.Errorf("HPBW = %v°, want ~13° (below 20°)", m.HPBWDeg)
	}
}

func TestQuantizationRaisesSideLobes(t *testing.T) {
	ideal := NewD5000Array(rf.FreqChannel2Hz)
	ideal.PhaseBits = 0
	coarse := NewD5000Array(rf.FreqChannel2Hz)
	coarse.PhaseBits = 2
	// Compare off-grid steering where quantization error is nonzero.
	theta := geom.Rad(23)
	ideal.Steer(theta)
	coarse.Steer(theta)
	mi := Analyze(ideal, 1440)
	mc := Analyze(coarse, 1440)
	if mc.PeakSideLobeDB() <= mi.PeakSideLobeDB() {
		t.Errorf("2-bit side lobe %v should exceed ideal %v",
			mc.PeakSideLobeDB(), mi.PeakSideLobeDB())
	}
}

func TestConsumerSideLobesMatchPaper(t *testing.T) {
	// Paper: side lobes in the −4 to −6 dB range for aligned links.
	// Across the codebook the strongest side lobe of the realized
	// patterns should reach that regime (it depends on the sector).
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 1)
	worst := math.Inf(-1)
	for _, s := range cb.Sectors {
		if math.Abs(s.SteerDeg) > 40 {
			continue // boundary sectors analyzed separately
		}
		m := Analyze(s.Pattern, 1440)
		if psl := m.PeakSideLobeDB(); psl > worst {
			worst = psl
		}
	}
	if worst < -9 || worst > -0.5 {
		t.Errorf("strongest in-coverage side lobe = %.1f dB, want roughly −1..−9 dB", worst)
	}
}

func TestBoundarySteeringDegrades(t *testing.T) {
	// Paper, Fig. 17 (rotated 70°): steering to the boundary of the
	// transmission area loses on the order of 10 dB of gain and raises
	// side lobes to as strong as −1 dB.
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(0)
	center := Analyze(a, 1440)
	a.Steer(geom.Rad(70))
	edge := Analyze(a, 1440)
	lossDB := center.PeakGainDBi - edge.PeakGainDBi
	if lossDB < 4 || lossDB > 16 {
		t.Errorf("boundary scan loss = %.1f dB, want substantial (≈10 dB)", lossDB)
	}
	if edge.PeakSideLobeDB() < center.PeakSideLobeDB() {
		t.Errorf("boundary side lobes (%.1f) should be stronger than center (%.1f)",
			edge.PeakSideLobeDB(), center.PeakSideLobeDB())
	}
	if edge.PeakSideLobeDB() < -6 {
		t.Errorf("boundary peak side lobe = %.1f dB, paper sees up to −1 dB", edge.PeakSideLobeDB())
	}
}

func TestQuasiOmniPatterns(t *testing.T) {
	// Paper, Fig. 16: quasi-omni patterns are wide (HPBW up to 60°) but
	// contain deep gaps.
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 7)
	if len(cb.QuasiOmni) != 32 {
		t.Fatalf("quasi-omni count = %d, want 32", len(cb.QuasiOmni))
	}
	wide, gapped := 0, 0
	for _, q := range cb.QuasiOmni {
		m := Analyze(q, 720)
		if m.HPBWDeg > 25 {
			wide++
		}
		if m.DeepGaps > 0 {
			gapped++
		}
		// Quasi-omni peak gain must be far below a directional sector's.
		if m.PeakGainDBi > 14 {
			t.Errorf("quasi-omni peak %.1f dBi too directive", m.PeakGainDBi)
		}
	}
	if wide < len(cb.QuasiOmni)/3 {
		t.Errorf("only %d/32 quasi-omni patterns are wide", wide)
	}
	if gapped < len(cb.QuasiOmni)/2 {
		t.Errorf("only %d/32 quasi-omni patterns have deep gaps", gapped)
	}
}

func TestWiHDWiderThanD5000(t *testing.T) {
	// Section 3.2: "the WiHD system transmits with a much wider antenna
	// pattern than the D5000".
	_, dcb := D5000Codebook(rf.FreqChannel2Hz, 3)
	_, wcb := WiHDCodebook(rf.FreqChannel2Hz, 3)
	davg, wavg := 0.0, 0.0
	for _, s := range dcb.Sectors {
		davg += Analyze(s.Pattern, 720).HPBWDeg
	}
	davg /= float64(len(dcb.Sectors))
	for _, s := range wcb.Sectors {
		wavg += Analyze(s.Pattern, 720).HPBWDeg
	}
	wavg /= float64(len(wcb.Sectors))
	if wavg <= davg {
		t.Errorf("WiHD HPBW %v° should exceed D5000 %v°", wavg, davg)
	}
}

func TestBestSector(t *testing.T) {
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 5)
	for _, deg := range []float64{-50, -10, 0, 30, 60} {
		s := cb.BestSector(geom.Rad(deg))
		if math.Abs(s.SteerDeg-deg) > 15 {
			t.Errorf("BestSector(%v°) picked sector at %v°", deg, s.SteerDeg)
		}
	}
}

func TestQuantizePhase(t *testing.T) {
	// 2 bits: states at 0, ±90, 180. 50° rounds to 90°, 40° to 0°.
	if got := QuantizePhase(geom.Rad(50), 2); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("50° quantized to %v°", geom.Deg(got))
	}
	if got := QuantizePhase(geom.Rad(40), 2); got != 0 {
		t.Errorf("40° quantized to %v°", geom.Deg(got))
	}
	if got := QuantizePhase(geom.Rad(40), 0); got != geom.Rad(40) {
		t.Error("0 bits should be identity")
	}
	f := func(ph float64, bits uint8) bool {
		if math.IsNaN(ph) || math.IsInf(ph, 0) || math.Abs(ph) > 100 {
			return true
		}
		b := int(bits%4) + 1
		q := QuantizePhase(ph, b)
		step := 2 * math.Pi / float64(uint(1)<<uint(b))
		return math.Abs(q-ph) <= step/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetWeightsLengthCheck(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	if err := a.SetWeights(make([]complex128, 3)); err == nil {
		t.Error("mismatched weight count should error")
	}
	if err := a.SetWeights(make([]complex128, 16)); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
}

// Codebook entries share their array's elements and errors but own
// their weights: each is a cap-limited window of the codebook's slab, so
// re-steering one entry leaves its neighbours and the array untouched.
func TestCodebookEntryWeightsIndependent(t *testing.T) {
	a, cb := D5000Codebook(rf.FreqChannel2Hz, 3)
	e3, e4 := cb.Sectors[3].Pattern.(*PhasedArray), cb.Sectors[4].Pattern.(*PhasedArray)
	if &e3.Elements[0] != &a.Elements[0] || &e3.errs[0] != &a.errs[0] {
		t.Error("codebook entry copied its array's elements or errors")
	}
	if cap(e3.Weights) != a.N() {
		t.Fatalf("entry weight window has cap %d, want %d", cap(e3.Weights), a.N())
	}
	base, next := a.GainDBi(0), e4.GainDBi(0)
	next4 := append([]complex128(nil), e4.Weights...)
	e3.Steer(geom.Rad(40))
	if got := a.GainDBi(0); got != base {
		t.Errorf("steering an entry changed its array: %v -> %v", base, got)
	}
	if got := e4.GainDBi(0); got != next {
		t.Errorf("steering entry 3 changed entry 4: %v -> %v", next, got)
	}
	for i, w := range e4.Weights {
		if w != next4[i] {
			t.Fatalf("entry 4 weight %d changed: %v -> %v", i, next4[i], w)
		}
	}
}

func TestSampleShape(t *testing.T) {
	angles, gains := Sample(Isotropic{}, 100)
	if len(angles) != 100 || len(gains) != 100 {
		t.Fatal("wrong sample count")
	}
	if angles[0] != -math.Pi {
		t.Errorf("first angle = %v", angles[0])
	}
	for _, g := range gains {
		if g != 0 {
			t.Fatal("isotropic sample nonzero")
		}
	}
}

func TestAnalyzeHornMetrics(t *testing.T) {
	h := Horn{PeakGainDBi: 20, HPBWDeg: 30}
	m := Analyze(h, 1440)
	if math.Abs(m.PeakGainDBi-20) > 0.05 {
		t.Errorf("peak = %v", m.PeakGainDBi)
	}
	if math.Abs(m.HPBWDeg-30) > 2 {
		t.Errorf("HPBW = %v, want ≈30", m.HPBWDeg)
	}
	if math.Abs(m.PeakAngle) > 0.01 {
		t.Errorf("peak angle = %v", m.PeakAngle)
	}
	// A clean Gaussian horn has no side lobes above the floor.
	if psl := m.PeakSideLobeDB(); !math.IsInf(psl, -1) && psl > -20 {
		t.Errorf("horn should have no strong side lobes, got %v", psl)
	}
}

func TestIrregular24Deterministic(t *testing.T) {
	a := NewIrregular24(rf.FreqChannel2Hz, 9)
	b := NewIrregular24(rf.FreqChannel2Hz, 9)
	if a.N() != 24 || b.N() != 24 {
		t.Fatal("wrong element count")
	}
	for i := range a.Elements {
		if a.Elements[i] != b.Elements[i] {
			t.Fatal("same seed should give same layout")
		}
	}
	c := NewIrregular24(rf.FreqChannel2Hz, 10)
	same := true
	for i := range a.Elements {
		if a.Elements[i] != c.Elements[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different layouts")
	}
}

func TestElementPatternBackHemisphere(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(0)
	// Gain behind the ground plane must be far below the main lobe.
	front := a.GainDBi(0)
	back := a.GainDBi(math.Pi)
	if front-back < 15 {
		t.Errorf("front-to-back = %v dB, want ≥15", front-back)
	}
}

func TestOrientedShiftProperty(t *testing.T) {
	// Oriented is a pure rotation: the oriented gain at boresight+delta
	// equals the local pattern gain at delta, for any boresight.
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(geom.Rad(17))
	f := func(boresight, delta float64) bool {
		if math.IsNaN(boresight) || math.IsNaN(delta) || math.Abs(boresight) > 50 || math.Abs(delta) > 50 {
			return true
		}
		o := Oriented{Pattern: a, Boresight: boresight}
		want := a.GainDBi(geom.NormalizeAngle(delta))
		got := o.GainDBi(boresight + delta)
		return math.Abs(want-got) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGainBoundedProperty(t *testing.T) {
	// Any realized pattern stays within physical bounds: never below the
	// floor, never above element gain + 10·log10(N) + a small epsilon.
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.ApplyImperfections(7, 1.0, 20)
	f := func(steer, theta float64) bool {
		if math.IsNaN(steer) || math.IsNaN(theta) || math.Abs(steer) > 10 || math.Abs(theta) > 10 {
			return true
		}
		a.Steer(steer)
		g := a.GainDBi(theta)
		upper := a.ElementGainDBi + 10*math.Log10(float64(a.N())) + 3 // error variance slack
		return g >= backLobeFloorDBi-1e-9 && g <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
