package rf

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/stats"
)

func TestWavelength(t *testing.T) {
	wl := Wavelength(FreqChannel2Hz)
	if math.Abs(wl-0.004957) > 1e-5 {
		t.Errorf("Wavelength(60.48 GHz) = %v, want ≈4.96 mm", wl)
	}
}

func TestFSPL(t *testing.T) {
	// Known value: FSPL at 1 m, 60.48 GHz ≈ 68.1 dB.
	if got := FSPLdB(1, FreqChannel2Hz); math.Abs(got-68.08) > 0.1 {
		t.Errorf("FSPL(1m) = %v", got)
	}
	// Doubling distance adds 6.02 dB.
	d1 := FSPLdB(4, FreqChannel2Hz)
	d2 := FSPLdB(8, FreqChannel2Hz)
	if math.Abs(d2-d1-6.02) > 0.01 {
		t.Errorf("doubling delta = %v", d2-d1)
	}
	// Near-field clamp: no -Inf at zero distance.
	if v := FSPLdB(0, FreqChannel2Hz); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("FSPL(0) = %v", v)
	}
}

func TestFSPLMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) || a > 1e6 || b > 1e6 {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return FSPLdB(lo, FreqChannel2Hz) <= FSPLdB(hi, FreqChannel2Hz)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOxygenAbsorption(t *testing.T) {
	// Peak near 60 GHz around 15 dB/km.
	v := OxygenAbsorptionDBPerKm(60e9)
	if v < 14 || v > 17 {
		t.Errorf("absorption at 60 GHz = %v", v)
	}
	// The paper's channel 3 (62.64 GHz) sees slightly less.
	if OxygenAbsorptionDBPerKm(FreqChannel3Hz) >= OxygenAbsorptionDBPerKm(FreqChannel2Hz) {
		t.Error("62.64 GHz should absorb less than 60.48 GHz")
	}
	// Edges clamp.
	if OxygenAbsorptionDBPerKm(1e9) != OxygenAbsorptionDBPerKm(40e9) {
		t.Error("below-range frequencies should clamp to the table edge")
	}
	if got := AtmosphericLossDB(1000, 60e9); math.Abs(got-OxygenAbsorptionDBPerKm(60e9)) > 1e-9 {
		t.Errorf("1 km loss = %v", got)
	}
	// Absorption is negligible at indoor ranges (the paper's links are
	// ≤ 20 m, < 0.35 dB).
	if got := AtmosphericLossDB(20, 60.48e9); got > 0.35 {
		t.Errorf("20 m absorption = %v", got)
	}
}

func TestNoiseFloor(t *testing.T) {
	// kTB over 1.76 GHz ≈ -81.5 dBm; +10 dB NF ≈ -71.5 dBm.
	got := NoiseFloorDBm(BandwidthHz, 10)
	if math.Abs(got-(-71.5)) > 0.2 {
		t.Errorf("noise floor = %v", got)
	}
}

func TestTraceLOSOnly(t *testing.T) {
	tr := NewTracer(geom.Open(), FreqChannel2Hz)
	paths, err := tr.Trace(geom.V(0, 0), geom.V(3.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("open space should have exactly the LOS path, got %d", len(paths))
	}
	p := paths[0]
	if p.Order != 0 || math.Abs(p.Length-3.2) > 1e-12 {
		t.Errorf("LOS path = %+v", p)
	}
	if math.Abs(p.AoD) > 1e-12 {
		t.Errorf("AoD = %v", p.AoD)
	}
	// AoA points back towards the transmitter.
	if math.Abs(geom.NormalizeAngle(p.AoA-math.Pi)) > 1e-12 {
		t.Errorf("AoA = %v", p.AoA)
	}
	wantLoss := FSPLdB(3.2, FreqChannel2Hz) + AtmosphericLossDB(3.2, FreqChannel2Hz)
	if math.Abs(p.LossDB-wantLoss) > 1e-9 {
		t.Errorf("LossDB = %v want %v", p.LossDB, wantLoss)
	}
}

func TestTraceFirstOrderMirror(t *testing.T) {
	// One metal wall along y=1; TX and RX on the x axis.
	room := geom.Open()
	room.AddWall(geom.V(-10, 1), geom.V(10, 1), "metal")
	tr := NewTracer(room, FreqChannel2Hz)
	tx, rx := geom.V(0, 0), geom.V(2, 0)
	paths, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	var refl *Path
	for i := range paths {
		if paths[i].Order == 1 {
			refl = &paths[i]
		}
	}
	if refl == nil {
		t.Fatal("no first-order path found")
	}
	// Image of (0,0) across y=1 is (0,2); reflection point is where the
	// line (0,2)→(2,0) crosses y=1, i.e. (1,1). Path length = 2·√2.
	if refl.Points[1].Dist(geom.V(1, 1)) > 1e-9 {
		t.Errorf("reflection point = %v", refl.Points[1])
	}
	if math.Abs(refl.Length-2*math.Sqrt2) > 1e-9 {
		t.Errorf("length = %v", refl.Length)
	}
	// Departure towards the wall: 45°.
	if math.Abs(refl.AoD-math.Pi/4) > 1e-9 {
		t.Errorf("AoD = %v", refl.AoD)
	}
	// Arrival from up-left: 135°.
	if math.Abs(refl.AoA-3*math.Pi/4) > 1e-9 {
		t.Errorf("AoA = %v", refl.AoA)
	}
	// The reflected path must be weaker than LOS.
	if paths[0].Order == 0 && refl.LossDB <= paths[0].LossDB {
		t.Error("reflection should be lossier than LOS")
	}
}

func TestTraceNoReflectionFromOppositeSide(t *testing.T) {
	// RX behind the wall: no specular bounce, and the wall blocks/attenuates.
	room := geom.Open()
	room.AddWall(geom.V(-10, 1), geom.V(10, 1), "metal")
	tr := NewTracer(room, FreqChannel2Hz)
	paths, err := tr.Trace(geom.V(0, 0), geom.V(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Order == 1 {
			t.Errorf("unexpected reflection across the wall: %v", p)
		}
		if p.Order == 0 {
			// Metal penetration is 80 dB; LOS survives but hugely attenuated.
			base := FSPLdB(2, FreqChannel2Hz) + AtmosphericLossDB(2, FreqChannel2Hz)
			if p.LossDB < base+79 {
				t.Errorf("LOS through metal not attenuated: %v", p.LossDB)
			}
		}
	}
}

func TestTraceBlockingObstacle(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1, -1), geom.V(1, 1), "absorber")
	tr := NewTracer(room, FreqChannel2Hz)
	paths, err := tr.Trace(geom.V(0, 0), geom.V(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Order == 0 {
			t.Error("LOS should be blocked by the obstacle")
		}
	}
}

func TestTraceSecondOrder(t *testing.T) {
	// Two parallel metal walls; a double bounce exists between them.
	room := geom.Open()
	room.AddWall(geom.V(-10, 2), geom.V(10, 2), "metal")
	room.AddWall(geom.V(-10, -2), geom.V(10, -2), "metal")
	tr := NewTracer(room, FreqChannel2Hz)
	paths, err := tr.Trace(geom.V(0, 0), geom.V(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, p := range paths {
		counts[p.Order]++
	}
	if counts[0] != 1 {
		t.Errorf("LOS count = %d", counts[0])
	}
	if counts[1] != 2 {
		t.Errorf("1st-order count = %d (one per wall expected)", counts[1])
	}
	if counts[2] < 2 {
		t.Errorf("2nd-order count = %d, want ≥ 2 (up-down and down-up)", counts[2])
	}
	// Each second-order path visits both walls: its two bounce points
	// have y = ±2.
	for _, p := range paths {
		if p.Order != 2 {
			continue
		}
		if len(p.Points) != 4 {
			t.Fatalf("2nd-order path has %d points", len(p.Points))
		}
		y1, y2 := p.Points[1].Y, p.Points[2].Y
		if math.Abs(y1*y2+4) > 1e-6 { // y1·y2 = -4 when one is +2, the other -2
			t.Errorf("bounce ys = %v, %v", y1, y2)
		}
	}
}

func TestTraceMaxOrderZero(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-10, 1), geom.V(10, 1), "metal")
	tr := NewTracer(room, FreqChannel2Hz)
	tr.MaxOrder = 0
	paths, err := tr.Trace(geom.V(0, 0), geom.V(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Order != 0 {
		t.Errorf("MaxOrder=0 gave %v", paths)
	}
}

func TestTraceUnknownMaterial(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-10, 1), geom.V(10, 1), "unobtanium")
	tr := NewTracer(room, FreqChannel2Hz)
	if _, err := tr.Trace(geom.V(0, 0), geom.V(2, 0)); err == nil {
		t.Error("unknown material should surface an error")
	}
}

func TestConferenceRoomHasReflections(t *testing.T) {
	// In the paper's conference room every location hears reflection
	// lobes that point at walls rather than at the devices.
	room := geom.ConferenceRoom()
	tr := NewTracer(room, FreqChannel2Hz)
	tx := geom.V(1.85, 3.25-1.3) // roughly the paper's TX position
	rx := geom.V(1.85+3.7, 1.6)
	paths, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	orders := map[int]int{}
	for _, p := range paths {
		orders[p.Order]++
	}
	if orders[0] != 1 {
		t.Errorf("LOS = %d", orders[0])
	}
	if orders[1] < 3 {
		t.Errorf("1st-order reflections = %d, want several in a 5-wall room", orders[1])
	}
	if orders[2] < 1 {
		t.Errorf("2nd-order reflections = %d, want at least one", orders[2])
	}
}

func TestPathLossOrderingByLength(t *testing.T) {
	// Among same-material reflections, longer unfolded paths lose more.
	room := geom.Box(0, 0, 9, 3.25, "metal")
	tr := NewTracer(room, FreqChannel2Hz)
	paths, err := tr.Trace(geom.V(1, 1), geom.V(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	var firstOrder []Path
	for _, p := range paths {
		if p.Order == 1 {
			firstOrder = append(firstOrder, p)
		}
	}
	sort.Slice(firstOrder, func(i, j int) bool { return firstOrder[i].Length < firstOrder[j].Length })
	for i := 1; i < len(firstOrder); i++ {
		// Allow a small tolerance for differing incidence angles.
		if firstOrder[i].LossDB < firstOrder[i-1].LossDB-3 {
			t.Errorf("longer path %v lost less than shorter %v", firstOrder[i], firstOrder[i-1])
		}
	}
}

func TestReceivedPowerDBm(t *testing.T) {
	paths := []Path{{LossDB: 80}, {LossDB: 90}}
	got := ReceivedPowerDBm(10, paths, Isotropic, Isotropic)
	// 10-80 = -70 dBm and 10-90 = -80 dBm sum to -69.59 dBm.
	want := 10 * math.Log10(math.Pow(10, -7)+math.Pow(10, -8))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ReceivedPowerDBm = %v want %v", got, want)
	}
	if !math.IsInf(ReceivedPowerDBm(10, nil, Isotropic, Isotropic), -1) {
		t.Error("no paths should be -Inf dBm")
	}
}

func TestReceivedPowerUsesGains(t *testing.T) {
	paths := []Path{{LossDB: 80, AoD: 0, AoA: math.Pi}}
	iso := ReceivedPowerDBm(0, paths, Isotropic, Isotropic)
	directional := func(a float64) float64 {
		if math.Abs(geom.NormalizeAngle(a)) < 0.1 {
			return 15
		}
		return -10
	}
	aligned := ReceivedPowerDBm(0, paths, directional, Isotropic)
	if math.Abs(aligned-iso-15) > 1e-9 {
		t.Errorf("tx gain not applied: %v vs %v", aligned, iso)
	}
	misaligned := ReceivedPowerDBm(0, paths, Isotropic, directional)
	if math.Abs(misaligned-iso+10) > 1e-9 {
		t.Errorf("rx gain not applied: %v vs %v", misaligned, iso)
	}
}

func TestStrongestPath(t *testing.T) {
	paths := []Path{{LossDB: 90, AoD: 1}, {LossDB: 70, AoD: 2}, {LossDB: 80, AoD: 3}}
	if got := StrongestPath(paths, Isotropic, Isotropic); got != 1 {
		t.Errorf("StrongestPath = %d", got)
	}
	if got := StrongestPath(nil, Isotropic, Isotropic); got != -1 {
		t.Errorf("empty StrongestPath = %d", got)
	}
}

func TestPathDelayGain(t *testing.T) {
	p := Path{Length: SpeedOfLight}
	if math.Abs(p.Delay()-1) > 1e-12 {
		t.Errorf("Delay = %v", p.Delay())
	}
}

func TestBudgetDefaults(t *testing.T) {
	b := DefaultBudget()
	nf := b.NoiseFloorDBm()
	// -71.5 noise + 5.8 implementation ≈ -65.7 dBm.
	if math.Abs(nf-(-65.7)) > 0.3 {
		t.Errorf("effective noise floor = %v", nf)
	}
	if got := b.SNRdB(-45.7); math.Abs(got-20) > 0.3 {
		t.Errorf("SNR = %v", got)
	}
}

func TestDraws(t *testing.T) {
	b := DefaultBudget()
	rng := stats.NewRNG(1)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = b.DrawAtmosphericOffsetDB(rng)
	}
	if m := stats.Mean(xs); math.Abs(m) > 0.15 {
		t.Errorf("atmospheric mean = %v", m)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-b.AtmosphericSigmaDB) > 0.15 {
		t.Errorf("atmospheric sd = %v", sd)
	}
	b.ShadowingSigmaDB = 0
	if b.DrawShadowingDB(rng) != 0 {
		t.Error("zero sigma should draw 0")
	}
	b.AtmosphericSigmaDB = 0
	if b.DrawAtmosphericOffsetDB(rng) != 0 {
		t.Error("zero sigma should draw 0")
	}
}

// Calibration regression: the end-to-end SNR-vs-distance curve that the
// MCS selection (and thus Figs. 12/13) depends on. Uses the default
// budget, isotropic + 15 dBi nominal array gains on both sides.
func TestCalibrationSNRAnchors(t *testing.T) {
	b := DefaultBudget()
	tr := NewTracer(geom.Open(), FreqChannel2Hz)
	gain := func(float64) float64 { return 15 }
	snrAt := func(d float64) float64 {
		paths, err := tr.Trace(geom.V(0, 0), geom.V(d, 0))
		if err != nil {
			t.Fatal(err)
		}
		rx := ReceivedPowerDBm(b.TxPowerDBm, paths, gain, gain)
		return b.SNRdB(rx)
	}
	s2, s8, s14, s20 := snrAt(2), snrAt(8), snrAt(14), snrAt(20)
	if s2 < 19 || s2 > 24 {
		t.Errorf("SNR(2m) = %.1f, want ~19–24 dB (16-QAM 5/8 region, below top MCS)", s2)
	}
	if s8 < 7 || s8 > 12 {
		t.Errorf("SNR(8m) = %.1f, want ~7–12 dB (QPSK region)", s8)
	}
	if s14 < 2 || s14 > 8 {
		t.Errorf("SNR(14m) = %.1f, want ~2–8 dB (BPSK region)", s14)
	}
	if s20 > 4 {
		t.Errorf("SNR(20m) = %.1f, want marginal (past the range cliff)", s20)
	}
}

func TestTraceMaxLossCutoff(t *testing.T) {
	// Paths beyond the loss cutoff are dropped.
	room := geom.Box(0, 0, 9, 3.25, "brick")
	tr := NewTracer(room, FreqChannel2Hz)
	all, err := tr.Trace(geom.V(1, 1), geom.V(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := NewTracer(room, FreqChannel2Hz)
	tr2.MaxLossDB = 90
	few, err := tr2.Trace(geom.V(1, 1), geom.V(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(few) >= len(all) {
		t.Errorf("cutoff kept %d of %d paths", len(few), len(all))
	}
	for _, p := range few {
		if p.LossDB > 90 {
			t.Errorf("path above cutoff survived: %v", p)
		}
	}
	// Zero disables the cutoff entirely.
	tr3 := NewTracer(room, FreqChannel2Hz)
	tr3.MaxLossDB = 0
	everything, err := tr3.Trace(geom.V(1, 1), geom.V(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(everything) < len(all) {
		t.Errorf("disabled cutoff dropped paths: %d < %d", len(everything), len(all))
	}
}

func TestPathString(t *testing.T) {
	p := Path{Order: 0, Length: 3, LossDB: 78, AoD: 0, AoA: math.Pi}
	if s := p.String(); s == "" || !containsAll(s, "LOS", "3.00m") {
		t.Errorf("String = %q", s)
	}
	p.Order = 2
	if s := p.String(); !containsAll(s, "2nd-order") {
		t.Errorf("String = %q", s)
	}
	p.Order = 3
	if s := p.String(); !containsAll(s, "3-order") {
		t.Errorf("String = %q", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestSameSideRequiredForReflection(t *testing.T) {
	// A wall between the endpoints yields no specular bounce off itself.
	room := geom.Open()
	room.AddWall(geom.V(-10, 0.5), geom.V(10, 0.5), "glass")
	tr := NewTracer(room, FreqChannel2Hz)
	paths, err := tr.Trace(geom.V(0, 0), geom.V(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Order > 0 {
			t.Errorf("bounce across a separating wall: %v", p)
		}
	}
}
