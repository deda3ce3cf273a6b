package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rf"
)

// wlinTolDB bounds how far the medium may sit from the scalar reference:
// only the float32 storage of each ray's weight differs, a relative
// error of at most 2⁻²⁴ (2.6e-7 dB) per ray.
const wlinTolDB = 1e-6

// oriented mounts pattern p at boresight bore.
func oriented(p antenna.Pattern, bore float64) GainFunc {
	return antenna.Oriented{Pattern: p, Boresight: bore}.GainFunc()
}

// sectorGains orients every sector of cb at bore.
func sectorGains(cb *antenna.Codebook, bore float64) []GainFunc {
	var gs []GainFunc
	for _, s := range cb.Sectors {
		gs = append(gs, oriented(s.Pattern, bore))
	}
	return gs
}

// heat queries p past any lazy tabulation threshold.
func heat(p antenna.Pattern) {
	for i := 0; i < 1000; i++ {
		p.GainDBi(float64(i))
	}
}

// batchTestScene builds a reflective room with two pattern-equipped
// radios: r[0] transmitting sector 3 of a D5000 codebook, r[1] listening
// on a quasi-omni codeword.
func batchTestScene(t testing.TB) (*Medium, []*Radio, *antenna.Codebook) {
	t.Helper()
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	room.AddWall(geom.V(-3, -1.5), geom.V(8, -1.5), "brick")
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(5, 0.7)
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 21)
	r[0].SetTxPattern(oriented(cb.Sectors[3].Pattern, 0.1))
	r[0].SetRxPattern(oriented(cb.QuasiOmni[1], 0.1))
	r[1].SetTxPattern(oriented(cb.Sectors[18].Pattern, math.Pi))
	r[1].SetRxPattern(oriented(cb.QuasiOmni[0], math.Pi))
	return m, r, cb
}

// scalarRxPowerDBm is the retained reference implementation: the scalar
// per-path sum over a fresh trace of the pair plus every dB-domain
// adjustment the medium applies. Like the medium it traces the canonical
// orientation (low ID → high ID) and mirrors it for the reverse
// direction, here by swapping each path's departure and arrival. The
// medium must stay within wlinTolDB of it.
func scalarRxPowerDBm(m *Medium, tx, rx *Radio) float64 {
	from, to := tx, rx
	if tx.ID > rx.ID {
		from, to = rx, tx
	}
	paths, err := m.Tracer().Trace(from.Pos, to.Pos)
	if err != nil {
		panic(err)
	}
	if tx.ID > rx.ID {
		for i := range paths {
			paths[i].AoD, paths[i].AoA = paths[i].AoA, paths[i].AoD
		}
	}
	p := rf.ReceivedPowerDBm(0, paths, tx.txGain, rx.rxGain)
	adj := tx.TxPowerDBm - m.ExtraLossDB + m.LinkOffset(tx.ID, rx.ID)
	if tx.Channel != rx.Channel {
		adj -= AdjacentChannelLeakageDB
	}
	return p + adj
}

// Exhaustive parity over a reflective scene: the batched RxPowerDBm must
// match the scalar reference in both orientations, and read the same
// bits whether or not the patterns have tabulated.
func TestBatchScalarPowerParity(t *testing.T) {
	m, r, cb := batchTestScene(t)
	pairs := [][2]*Radio{{r[0], r[1]}, {r[1], r[0]}}
	check := func(stage string) [2]float64 {
		t.Helper()
		var got [2]float64
		for i, pair := range pairs {
			got[i] = m.RxPowerDBm(pair[0], pair[1])
			want := scalarRxPowerDBm(m, pair[0], pair[1])
			if d := math.Abs(got[i] - want); d > wlinTolDB {
				t.Errorf("%s %s→%s: batch %.9f vs scalar %.9f dBm (Δ %.2g, budget %.2g)",
					stage, pair[0].Name, pair[1].Name, got[i], want, d, wlinTolDB)
			}
		}
		return got
	}
	cold := check("cold")
	// Heat every involved pattern past its tabulation threshold, then
	// force fresh evaluations past the memo via a pattern reinstall.
	for _, s := range cb.Sectors {
		heat(s.Pattern)
	}
	for _, q := range cb.QuasiOmni {
		heat(q)
	}
	r[0].SetTxPattern(oriented(cb.Sectors[3].Pattern, 0.1))
	r[1].SetTxPattern(oriented(cb.Sectors[18].Pattern, math.Pi))
	if hot := check("hot"); hot != cold {
		t.Errorf("tabulating the patterns moved the powers: %v -> %v dBm", cold, hot)
	}
}

// The medium-level sweep must agree with installing each sector and
// asking for the pair power one pattern at a time (to rounding: the
// sweep multiplies the two gains' linear values, the pair kernel adds
// them in dB).
func TestSweepMatchesPerSectorPower(t *testing.T) {
	m, r, cb := batchTestScene(t)
	sectors := sectorGains(cb, 0.1)
	probe := oriented(cb.QuasiOmni[0], math.Pi)
	powers := m.SweepTxPowerDBm(r[0], r[1], sectors, probe)
	if len(powers) != len(sectors) {
		t.Fatalf("%d powers for %d sectors", len(powers), len(sectors))
	}
	got := make([]float64, len(powers))
	copy(got, powers) // medium-owned scratch: next calls overwrite it
	r[1].SetRxPattern(probe)
	for s := range sectors {
		r[0].SetTxPattern(sectors[s])
		want := m.RxPowerDBm(r[0], r[1])
		if d := math.Abs(got[s] - want); d > 1e-9 {
			t.Errorf("sector %d: sweep %.6f vs pair %.6f dBm (Δ %.2g)", s, got[s], want, d)
		}
	}
}

// Every invalidation route — selective wall moves, radio moves,
// structural edits — drops the pair's one entry, canonical bundle and
// reverse view together, so no evaluation in either direction ever reads
// geometry the tracer has abandoned.
func TestBundleInvalidationLockstep(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 3)
	r[0].Pos, r[1].Pos, r[2].Pos = geom.V(0, 0), geom.V(3, 0), geom.V(40, 40)

	// Prime both orientations of (0,1) plus the far pair (0,2).
	m.RxPowerDBm(r[0], r[1])
	m.RxPowerDBm(r[1], r[0])
	m.RxPowerDBm(r[0], r[2])
	if !traced(m, r[0], r[1]) || !traced(m, r[0], r[2]) {
		t.Fatal("pairs not primed")
	}

	// A wall move crossing the near pair's rays drops exactly that
	// entry, and the re-evaluated power sees the blocker — in both
	// directions and in agreement with the scalar reference.
	before := m.RxPowerDBm(r[1], r[0])
	room.MoveWall(walker, geom.Seg(geom.V(1.5, -0.2), geom.V(1.5, 0.3)))
	m.syncRoom()
	if traced(m, r[0], r[1]) {
		t.Fatal("entry survived a wall move across its rays")
	}
	if !traced(m, r[0], r[2]) {
		t.Error("distant pair's entry was needlessly dropped")
	}
	rev := m.RxPowerDBm(r[1], r[0])
	if rev >= before-10 {
		t.Errorf("reverse batch power did not see the blocker: %v -> %v dBm", before, rev)
	}
	if fwd := m.RxPowerDBm(r[0], r[1]); math.Abs(fwd-rev) > 1e-9 {
		t.Errorf("orientations disagree after the move: fwd %v, rev %v dBm", fwd, rev)
	}
	if d := math.Abs(rev - scalarRxPowerDBm(m, r[1], r[0])); d > wlinTolDB {
		t.Errorf("post-move batch/scalar disagreement: %.2g dB", d)
	}

	// Radio move: InvalidateRadio drops the touching entries.
	m.InvalidateRadio(r[0].ID)
	if traced(m, r[0], r[1]) || traced(m, r[0], r[2]) {
		t.Error("entry survived InvalidateRadio")
	}

	// Structural edit: every entry goes.
	m.RxPowerDBm(r[0], r[1])
	m.RxPowerDBm(r[2], r[1])
	room.AddWall(geom.V(-5, 50), geom.V(5, 50), "glass")
	m.syncRoom()
	if n := tracedPairs(m); n != 0 {
		t.Errorf("structural edit left %d traced pairs", n)
	}
}

// Entries outlive invalidation, so drop must clear both orientations'
// memos: every read goes through the memo, and
// a memo left behind would keep returning the pre-invalidation power in
// that direction. The pair's slow shadowing offset, by contrast, belongs
// to the pair and survives every invalidation route.
func TestInvalidationDropsMemos(t *testing.T) {
	m, r, _ := batchTestScene(t)
	room := m.Tracer().Room
	// A blocker parked behind the brick wall, away from every ray.
	room.AddObstacle(geom.V(2.5, -5), geom.V(2.5, -4), "human")
	walker := len(room.Walls) - 1
	pairs := [][2]*Radio{{r[0], r[1]}, {r[1], r[0]}}
	offset := m.LinkOffset(r[0].ID, r[1].ID)

	// read primes both memos, confirms they hit, and returns the powers.
	read := func() [2]float64 {
		var p [2]float64
		for i, pair := range pairs {
			p[i] = m.RxPowerDBm(pair[0], pair[1])
			if again := m.RxPowerDBm(pair[0], pair[1]); again != p[i] {
				t.Fatalf("%s→%s: repeated read changed %v -> %v", pair[0].Name, pair[1].Name, p[i], again)
			}
		}
		return p
	}
	check := func(stage string, before [2]float64) {
		t.Helper()
		for i, pair := range pairs {
			got := m.RxPowerDBm(pair[0], pair[1])
			if got == before[i] {
				t.Errorf("%s %s→%s: power unchanged at %v dBm: stale memo", stage, pair[0].Name, pair[1].Name, got)
			}
			if d := math.Abs(got - scalarRxPowerDBm(m, pair[0], pair[1])); d > wlinTolDB {
				t.Errorf("%s %s→%s: batch/scalar disagreement %.2g dB", stage, pair[0].Name, pair[1].Name, d)
			}
		}
		if got := m.LinkOffset(r[0].ID, r[1].ID); got != offset {
			t.Errorf("%s: link offset %v, want %v", stage, got, offset)
		}
	}

	// The blocker walks onto the line of sight.
	before := read()
	room.MoveWall(walker, geom.Seg(geom.V(2.5, -0.2), geom.V(2.5, 0.8)))
	check("MoveWall", before)

	// A radio move, announced through InvalidateRadio.
	before = read()
	r[1].Pos = geom.V(4, -0.6)
	m.InvalidateRadio(r[1].ID)
	check("InvalidateRadio", before)

	// A structural edit keeps the offset too.
	read()
	room.AddWall(geom.V(-5, 50), geom.V(5, 50), "glass")
	m.syncRoom()
	if traced(m, r[0], r[1]) {
		t.Error("structural edit left the pair traced")
	}
	if got := m.LinkOffset(r[0].ID, r[1].ID); got != offset {
		t.Errorf("structural edit: link offset %v, want %v", got, offset)
	}
}

// A beam switch must invalidate the memoized kernel result: the next
// power read reflects the new sector immediately.
func TestPatternSwitchInvalidatesMemo(t *testing.T) {
	m, r, cb := batchTestScene(t)
	p3 := m.RxPowerDBm(r[0], r[1])
	p3again := m.RxPowerDBm(r[0], r[1]) // memo hit
	if p3 != p3again {
		t.Fatalf("repeated read changed: %v vs %v", p3, p3again)
	}
	// Steer to the opposite edge of the codebook: a different beam must
	// change the received power (a stale memo would reproduce p3).
	r[0].SetTxPattern(oriented(cb.Sectors[21].Pattern, 0.1))
	p21 := m.RxPowerDBm(r[0], r[1])
	if p21 == p3 {
		t.Error("power unchanged after beam switch: stale memo suspected")
	}
	if d := math.Abs(p21 - scalarRxPowerDBm(m, r[0], r[1])); d > wlinTolDB {
		t.Errorf("post-switch batch/scalar disagreement: %.2g dB", d)
	}
	// Radios that never installed a pattern are isotropic and memoized
	// like every other; their first install is honored on the next read.
	m2, rr := testMedium(geom.Open(), 2)
	rr[0].Pos, rr[1].Pos = geom.V(0, 0), geom.V(3, 0)
	iso := m2.RxPowerDBm(rr[0], rr[1])
	if again := m2.RxPowerDBm(rr[0], rr[1]); again != iso || !m2.entry(0, 1).fwdMemo.ok {
		t.Errorf("isotropic pair not memoized: %v then %v dBm", iso, again)
	}
	rr[0].SetTxPattern(func(float64) float64 { return 10 })
	if got := m2.RxPowerDBm(rr[0], rr[1]); math.Abs(got-iso-10) > 1e-9 {
		t.Errorf("SetTxPattern not honored: %v -> %v dBm", iso, got)
	}
}

// SetLinkOffset must reach a pair whose entry is already traced, so it
// sees the new shadowing at once (the Fig. 14 random walk drives this
// every step).
func TestSetLinkOffsetWriteThrough(t *testing.T) {
	m, r, _ := batchTestScene(t)
	p0 := m.RxPowerDBm(r[0], r[1])
	off := m.LinkOffset(r[0].ID, r[1].ID)
	m.SetLinkOffset(r[0].ID, r[1].ID, off+7)
	p1 := m.RxPowerDBm(r[0], r[1])
	if math.Abs(p1-p0-7) > 1e-9 {
		t.Errorf("offset +7 dB moved power by %v dB", p1-p0)
	}
	// And the re-trace after a SetLinkOffset must keep the pinned value
	// rather than drawing a fresh one.
	m.InvalidateChannels()
	if p2 := m.RxPowerDBm(r[0], r[1]); math.Abs(p2-p1) > 1e-9 {
		t.Errorf("rebuilt bundle lost the pinned offset: %v vs %v dBm", p2, p1)
	}
}

// Steady-state batched reads must not allocate: the memo-hit pair power
// and the codebook sweep both run on medium-owned scratch. Patterns
// tabulate lazily (and the shared tables are built on first use), so
// every pattern involved is warmed past its threshold first — otherwise
// the one-off build lands inside the measured loop whenever no earlier
// test in the process happened to warm the same patterns.
func TestBatchPowerZeroAlloc(t *testing.T) {
	m, r, cb := batchTestScene(t)
	sectors := sectorGains(cb, 0.1)
	probe := oriented(cb.QuasiOmni[0], math.Pi)
	for _, s := range cb.Sectors {
		heat(s.Pattern)
	}
	for _, q := range cb.QuasiOmni {
		heat(q)
	}
	m.RxPowerDBm(r[0], r[1])
	m.SweepTxPowerDBm(r[0], r[1], sectors, probe)
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			m.RxPowerDBm(r[0], r[1])
		}
	}); n != 0 {
		t.Errorf("1000 memo-hit RxPowerDBm calls allocate %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			m.SweepTxPowerDBm(r[0], r[1], sectors, probe)
		}
	}); n != 0 {
		t.Errorf("200 SweepTxPowerDBm calls allocate %v times, want 0", n)
	}
}

// --- Microbenchmarks -----------------------------------------------------

// BenchmarkRxPowerBatchHit measures the steady-state pair read: bundle
// cached, patterns stable, memo hot.
func BenchmarkRxPowerBatchHit(b *testing.B) {
	m, r, _ := batchTestScene(b)
	m.RxPowerDBm(r[0], r[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RxPowerDBm(r[0], r[1])
	}
}

// BenchmarkSectorSweepBatch measures the full 22-sector training sweep
// through the medium kernel.
func BenchmarkSectorSweepBatch(b *testing.B) {
	m, r, cb := batchTestScene(b)
	sectors := sectorGains(cb, 0.1)
	probe := oriented(cb.QuasiOmni[0], math.Pi)
	m.SweepTxPowerDBm(r[0], r[1], sectors, probe)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SweepTxPowerDBm(r[0], r[1], sectors, probe)
	}
}

// BenchmarkDeviceSetBatch measures one frame against a device set: a
// transmit fans power out to every registered radio through the batched
// pair kernel, then the delivery fires.
func BenchmarkDeviceSetBatch(b *testing.B) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 6), geom.V(20, 6), "brick")
	m, r := testMedium(room, 8)
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 5)
	for i, rad := range r {
		rad.Pos = geom.V(float64(i*2), float64(i%2))
		rad.SetTxPattern(oriented(cb.Sectors[i*2].Pattern, 0))
		rad.SetRxPattern(oriented(cb.QuasiOmni[i%4], 0))
	}
	r[1].Handler = HandlerFunc(func(phy.Frame, Reception) {})
	f := phy.Frame{Type: phy.FrameData, Src: r[0].ID, Dst: r[1].ID, MCS: phy.MCS8, PayloadBytes: 2048}
	s := m.Sched
	m.Transmit(r[0], f)
	s.Run(s.Now() + time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(r[0], f)
		s.Run(s.Now() + time.Millisecond)
	}
}

// BenchmarkVisibilityRebuild measures the invalidation round trip: a
// logged wall move drops the pair's bundle and the next read re-traces
// and rebuilds it.
func BenchmarkVisibilityRebuild(b *testing.B) {
	room := geom.Open()
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)
	m.RxPowerDBm(r[0], r[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := -1.0 + 0.1*float64(i%3)
		room.MoveWall(walker, geom.Seg(geom.V(1.5, y), geom.V(1.5, y+0.5)))
		m.RxPowerDBm(r[0], r[1])
	}
}
