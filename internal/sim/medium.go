package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/audit"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/stats"
)

// GainFunc maps a global-frame angle to antenna gain in dBi; radios
// expose their current transmit and receive patterns this way so beam
// switches take effect immediately without invalidating channel caches
// (which hold geometry only).
type GainFunc = rf.GainFunc

// Reception describes how one frame arrived at one radio.
type Reception struct {
	// From is the transmitting radio's ID.
	From int
	// PowerDBm is the received signal power of this frame.
	PowerDBm float64
	// InterferenceDBm is the overlap-weighted power of all other
	// concurrent transmissions (-Inf when the frame had the air alone).
	InterferenceDBm float64
	// SINRdB is the resulting signal-to-interference-plus-noise ratio.
	SINRdB float64
	// OK reports whether the frame decoded (PER draw at the SINR).
	OK bool
	// Collided reports that interference overlapped this frame at all,
	// whether or not it decoded — the sniffer uses this to annotate
	// traces like Fig. 21.
	Collided bool
	// Start and End bound the frame on air.
	Start, End Time
}

// Handler receives medium callbacks on the scheduler goroutine.
type Handler interface {
	// OnFrame fires at the end of every transmission whose received
	// power is above the radio's listen floor, including frames destined
	// elsewhere (60 GHz sniffing works exactly because the medium has no
	// addressing).
	OnFrame(f phy.Frame, rx Reception)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(f phy.Frame, rx Reception)

// OnFrame implements Handler.
func (h HandlerFunc) OnFrame(f phy.Frame, rx Reception) { h(f, rx) }

// Radio is a transceiver at a fixed position with switchable beam
// patterns.
type Radio struct {
	// ID is assigned by the medium at registration.
	ID int
	// Name labels the radio in traces ("dockA", "hdmiTX", "vubiq"...).
	Name string
	// Pos is the radio's position in meters.
	Pos geom.Vec2
	// TxPowerDBm is the conducted transmit power.
	TxPowerDBm float64
	// Channel selects one of the 60 GHz channels (0 = 60.48 GHz,
	// 1 = 62.64 GHz). Radios on different channels neither receive nor
	// carrier-sense each other beyond the adjacent-channel leakage
	// floor — the isolation the two DUT systems would have enjoyed had
	// they not been forced onto the same channel (§4.4).
	Channel int
	// Handler receives frame deliveries; nil radios are transmit-only.
	Handler Handler
	// ListenFloorDBm suppresses OnFrame callbacks for frames arriving
	// weaker than this (they still contribute interference). Left at zero
	// without ListenFloorSet, it defaults to -90 dBm at registration.
	ListenFloorDBm float64
	// ListenFloorSet marks ListenFloorDBm as intentionally configured, so
	// a radio with a genuine 0 dBm listen floor survives AddRadio's
	// defaulting instead of being silently reset to -90.
	ListenFloorSet bool

	medium *Medium
	// txGain and rxGain are the current patterns, installed through
	// SetTxPattern/SetRxPattern.
	txGain, rxGain GainFunc
	// patGen counts pattern installs; the per-pair power memo is keyed to
	// it, so a beam switch invalidates every memoized kernel result
	// involving this radio for free.
	patGen uint64
	// floorMw caches the listen floor in mW keyed to the dBm value it was
	// derived from, so the per-delivery threshold compare needs no exp.
	floorMw    float64
	floorForDB float64
	floorOk    bool
}

// orIsotropic returns g, or the 0 dBi pattern for nil.
func orIsotropic(g GainFunc) GainFunc {
	if g == nil {
		return func(float64) float64 { return 0 }
	}
	return g
}

// SetTxPattern installs g as the radio's transmit pattern (nil means
// isotropic). Beam steering swaps patterns at any time. g must be a pure
// function of the angle: the medium memoizes its channel sums until the
// next install.
func (r *Radio) SetTxPattern(g GainFunc) {
	r.txGain = orIsotropic(g)
	r.patGen++
}

// SetRxPattern installs g as the radio's receive pattern; see
// SetTxPattern.
func (r *Radio) SetRxPattern(g GainFunc) {
	r.rxGain = orIsotropic(g)
	r.patGen++
}

// listenFloorMw returns the listen floor converted to mW, cached against
// the current ListenFloorDBm.
func (r *Radio) listenFloorMw() float64 {
	if !r.floorOk || r.floorForDB != r.ListenFloorDBm {
		r.floorMw = rf.DbToLin(r.ListenFloorDBm)
		r.floorForDB = r.ListenFloorDBm
		r.floorOk = true
	}
	return r.floorMw
}

// transmission is one frame on air. Transmissions are pooled by their
// medium: once pruned from the active list they are recycled, keeping
// the rxPowerDBm backing array and the pre-bound finish callback so a
// steady-state Transmit allocates nothing.
type transmission struct {
	frame      phy.Frame
	tx         *Radio
	start, end Time
	// rxPowerMw caches per-receiver power for this transmission in mW,
	// indexed by radio ID (computed once at start, since patterns are
	// fixed for the duration of a frame). Zero means no signal (the
	// transmitter itself, or a fully blocked channel); dBm values are
	// derived only for frames that actually reach a handler, so energy
	// detect and interference sums never leave the linear domain.
	rxPowerMw []float64
	// fire is the end-of-frame callback, bound to this struct once at
	// first allocation and reused across recycles.
	fire func()
	// liveIdx is this transmission's position in Medium.live while on
	// air (swap-removed at finish).
	liveIdx int
}

// Medium connects radios through the propagation engine. All methods
// must be called from the scheduler goroutine.
type Medium struct {
	Sched  *Scheduler
	Budget rf.LinkBudget
	tracer *rf.Tracer
	radios []*Radio
	// pairs holds one entry per unordered radio pair in a lower-triangular
	// table: pairs[hi][lo] with lo < hi (see entry).
	pairs [][]pairEntry
	// pathScratch is the tracer's output buffer: paths are read only to
	// build a pair's bundle, so every trace reuses this one slice (and the
	// point slabs parked in its spare capacity).
	pathScratch []rf.Path
	// roomEpoch is the geometry epoch the pair entries were traced
	// against; pairFor resyncs lazily when the room mutates
	// (geom.Room.MoveWall et al.), invalidating only the pairs a move can
	// affect.
	roomEpoch uint64
	// active transmissions in start order (Transmit appends at the current
	// clock): everything on air plus recently ended frames retained for
	// pruneWindow (interference accounting). Only the expired prefix is
	// pruned, so active[activeHead:] is the retained list; entries before
	// activeHead are nil until the next compaction shifts the tail down.
	active     []*transmission
	activeHead int
	// maxDur is the longest air time of any transmission this medium has
	// carried. Together with the start order of active it bounds how far
	// back finish() must look for frames overlapping the one that ended.
	maxDur Time
	// live is the subset of active still on air right now — each entry
	// leaves at its own finish(). Carrier sensing scans this short list;
	// the audit layer re-derives totals from the full active list.
	live []*transmission
	// txFree recycles transmission structs pruned from the active list.
	txFree []*transmission
	rng    *stats.RNG
	// FadingSigmaDB adds a per-frame, per-receiver fast-fading jitter.
	FadingSigmaDB float64
	// ExtraLossDB is a global margin (atmospheric conditions of the
	// "experiment day", Fig. 13).
	ExtraLossDB float64
	// deliveryFilter, when set, can suppress the OnFrame callback of a
	// delivery; tests use it to lose chosen frames. The suppressed frame
	// was still on air — it contributed energy to carrier sensing and
	// interference to overlapping frames — but the receive chain never
	// surfaced it.
	deliveryFilter func(f phy.Frame, tx, rx *Radio) bool
	// beval caches the link budget's linear-domain constants for the
	// delivery hot path (re-synced by struct compare, so Budget edits
	// take effect immediately).
	beval rf.BudgetEval
	// ovTx/ovFrac are finish()'s per-frame overlap scratch: the list of
	// concurrent transmissions and their overlap fractions is computed
	// once per ended frame and reused across all its receivers.
	ovTx   []*transmission
	ovFrac []float64
	// sweepDst/sweepRxLin back SweepTxPowerDBm's returned slab and its
	// per-ray receive-gain scratch; both are overwritten by the next
	// sweep on this medium.
	sweepDst   []float64
	sweepRxLin []float64
	// moveScratch backs syncRoom's move-log reads.
	moveScratch []geom.WallMove
}

// pairEntry is the medium's state for one unordered radio pair. The
// canonical bundle (low ID transmitting to high ID) is traced on first
// use; the reverse orientation is a view of it (rf.RayBundle.Reversed),
// since reciprocity keeps every weight and only swaps departure and
// arrival. Invalidation (drop) clears the traced flag and both memos but
// keeps the bundle storage for the re-trace and the slow shadowing
// offset, which belongs to the pair rather than to its geometry.
type pairEntry struct {
	fwd, rev rf.RayBundle
	// traced marks fwd/rev as current for the room and both positions.
	traced bool
	// fwdMemo/revMemo cache the most recent antenna-weighted kernel
	// result per orientation, keyed to both radios' pattern generations.
	// Beams are stable between training events, so steady-state traffic
	// reuses one multiply-accumulate result per pair instead of
	// re-gathering every ray each frame.
	fwdMemo, revMemo pairMemo
	// offsetDb is the pair's slow shadowing offset, drawn on first use
	// (offsetSet) or pinned by SetLinkOffset.
	offsetDb  float64
	offsetSet bool
}

// drop is the one invalidation: the next pairFor re-traces the pair and
// re-evaluates both orientations.
func (e *pairEntry) drop() {
	e.traced = false
	e.fwdMemo = pairMemo{}
	e.revMemo = pairMemo{}
}

// pairMemo is one memoized PowerMw result, valid while both radios keep
// the pattern generations it was computed at.
type pairMemo struct {
	kmw          float64
	txGen, rxGen uint64
	ok           bool
}

// NewMedium creates a medium over the given room using the link budget
// and a deterministic seed.
func NewMedium(s *Scheduler, room *geom.Room, freqHz float64, budget rf.LinkBudget, seed uint64) *Medium {
	return &Medium{
		Sched:         s,
		Budget:        budget,
		tracer:        rf.NewTracer(room, freqHz),
		roomEpoch:     room.Epoch(),
		rng:           stats.NewRNG(seed),
		FadingSigmaDB: 0.8,
	}
}

// Tracer exposes the underlying ray tracer (experiments use it to build
// angular profiles without radios).
func (m *Medium) Tracer() *rf.Tracer { return m.tracer }

// RNG exposes the medium's random stream for co-seeded model decisions.
func (m *Medium) RNG() *stats.RNG { return m.rng }

// AddRadio registers the radio and assigns its ID.
func (m *Medium) AddRadio(r *Radio) *Radio {
	r.ID = len(m.radios)
	if r.ListenFloorDBm == 0 && !r.ListenFloorSet {
		r.ListenFloorDBm = -90
	}
	r.txGain, r.rxGain = orIsotropic(r.txGain), orIsotropic(r.rxGain)
	r.medium = m
	m.radios = append(m.radios, r)
	// Row r.ID of the pair table holds r's entries with every earlier
	// radio; IDs are never reused, so the row is sized once here.
	m.pairs = append(m.pairs, make([]pairEntry, r.ID))
	return r
}

// Radios returns the registered radios.
func (m *Medium) Radios() []*Radio { return m.radios }

// entry returns the pair's table slot. a and b must be distinct
// registered IDs.
func (m *Medium) entry(a, b int) *pairEntry {
	if a < b {
		a, b = b, a
	}
	return &m.pairs[a][b]
}

// pairFor returns the pair's entry, tracing the canonical orientation
// and rebuilding its bundle on miss. Bundles hold geometry only —
// antenna patterns and the global margin are applied per evaluation —
// so beam switches never touch them; room edits and radio moves drop
// them (drop). The first pairFor of a pair also draws its slow
// shadowing offset unless LinkOffset or SetLinkOffset got there first.
func (m *Medium) pairFor(tx, rx *Radio) *pairEntry {
	m.syncRoom()
	e := m.entry(tx.ID, rx.ID)
	if !e.traced {
		from, to := tx, rx
		if tx.ID > rx.ID {
			from, to = rx, tx
		}
		ps, err := m.tracer.TraceAppend(m.pathScratch[:0], from.Pos, to.Pos)
		if err != nil {
			// Panic with the error value itself (not a formatted string)
			// so the campaign runner's failure classifier can unwrap the
			// *rf.GeometryError and file the point as a structured
			// geometry failure instead of a bare panic.
			panic(fmt.Errorf("sim: trace %s→%s: %w", from.Name, to.Name, err))
		}
		m.pathScratch = ps
		e.fwd.Rebuild(ps)
		e.rev = e.fwd.Reversed()
		e.traced = true
		m.linkOffset(e)
	}
	return e
}

// oriented returns the tx→rx orientation of the entry's bundle plus its
// memo slot.
func (e *pairEntry) oriented(tx, rx *Radio) (*rf.RayBundle, *pairMemo) {
	if tx.ID > rx.ID {
		return &e.rev, &e.revMemo
	}
	return &e.fwd, &e.fwdMemo
}

// syncRoom reconciles the pair entries with the room's mutation epoch.
// Logged wall moves drop only the pairs whose candidate paths the moved
// segments can touch (rf.Tracer.PairAffected); structural edits or a
// trimmed move log drop every pair.
func (m *Medium) syncRoom() {
	room := m.tracer.Room
	epoch := room.Epoch()
	if epoch == m.roomEpoch {
		return
	}
	moves, complete := room.AppendMovesSince(m.moveScratch[:0], m.roomEpoch)
	m.moveScratch = moves[:0]
	for hi, row := range m.pairs {
		for lo := range row {
			e := &row[lo]
			if e.traced && (!complete || m.tracer.PairAffected(m.radios[lo].Pos, m.radios[hi].Pos, moves)) {
				e.drop()
			}
		}
	}
	m.roomEpoch = epoch
}

// InvalidateChannels drops every pair. Prefer the selective routes:
// InvalidateRadio after moving a radio, and geom.Room.MoveWall (picked
// up automatically) after moving an obstacle.
func (m *Medium) InvalidateChannels() {
	for _, row := range m.pairs {
		for lo := range row {
			row[lo].drop()
		}
	}
	m.roomEpoch = m.tracer.Room.Epoch()
}

// InvalidateRadio drops only the pairs touching the given radio — the
// correct invalidation after moving that radio, leaving every other
// pair's ray-traced channel intact. Unknown IDs panic: a typoed ID here
// would silently leave stale channels in place, which is exactly the
// class of bug this call exists to prevent.
func (m *Medium) InvalidateRadio(id int) {
	m.checkRadioID("InvalidateRadio", id)
	for other := range m.radios {
		if other != id {
			m.entry(id, other).drop()
		}
	}
}

// checkRadioID panics with a descriptive message when id does not name a
// registered radio. IDs are assigned densely by AddRadio, so anything
// outside [0, len) is a caller bug — accepting it silently would turn a
// typo into a no-op (InvalidateRadio) or a phantom link entry
// (SetLinkOffset) that never affects a real pair.
func (m *Medium) checkRadioID(method string, id int) {
	if id < 0 || id >= len(m.radios) {
		panic(fmt.Sprintf("sim: Medium.%s: unknown radio ID %d (%d radios registered, valid IDs are 0..%d)",
			method, id, len(m.radios), len(m.radios)-1))
	}
}

// linkOffset returns the pair's slow shadowing offset, drawing it on
// first use.
func (m *Medium) linkOffset(e *pairEntry) float64 {
	if !e.offsetSet {
		e.offsetDb = m.Budget.DrawShadowingDB(m.rng)
		e.offsetSet = true
	}
	return e.offsetDb
}

// SetLinkOffset pins the slow shadowing offset of a radio pair; the
// pair's next evaluation uses it. The long-run stability experiment
// (Fig. 14) drives a gentle random walk through this to provoke beam
// realignments in an otherwise static scene.
// Unknown IDs panic (see checkRadioID).
func (m *Medium) SetLinkOffset(aID, bID int, db float64) {
	m.checkRadioID("SetLinkOffset", aID)
	m.checkRadioID("SetLinkOffset", bID)
	e := m.entry(aID, bID)
	e.offsetDb = db
	e.offsetSet = true
}

// LinkOffset returns the current slow shadowing offset of a pair (drawing
// it if the pair has not been used yet). Unknown IDs panic (see
// checkRadioID).
func (m *Medium) LinkOffset(aID, bID int) float64 {
	m.checkRadioID("LinkOffset", aID)
	m.checkRadioID("LinkOffset", bID)
	return m.linkOffset(m.entry(aID, bID))
}

// SetDeliveryFilter installs (or, with nil, removes) the delivery
// filter: before any frame is handed to a radio's Handler, the filter
// decides whether that radio's receive chain sees it. Returning false
// drops the callback; the frame's energy and interference contributions
// are unaffected. No simulation installs one: it is a test seam for
// losing chosen frames (dropped beacons, a forced retransmission), and
// a medium holds at most one filter.
func (m *Medium) SetDeliveryFilter(fn func(f phy.Frame, tx, rx *Radio) bool) {
	m.deliveryFilter = fn
}

// AdjacentChannelLeakageDB is the extra rejection applied between
// radios tuned to different channels (filter stopband; the 2.16 GHz
// channelization leaves essentially no co-channel energy).
const AdjacentChannelLeakageDB = 45

// pairPower evaluates the pair's channel through the batch kernel and
// returns it in factored form: kmw is the antenna-weighted channel power
// in mW for a 0 dBm reference (zero for a dead channel), adjDb collects
// every dB-domain adjustment (tx power, channel leakage, global margin,
// slow shadowing). Callers fold the two with a single exp or log —
// Transmit pays one DbToLin per receiver (fading folds into adjDb),
// RxPowerDBm one LinToDb.
func (m *Medium) pairPower(tx, rx *Radio) (kmw, adjDb float64) {
	e := m.pairFor(tx, rx)
	adjDb = tx.TxPowerDBm - m.ExtraLossDB + e.offsetDb
	if tx.Channel != rx.Channel {
		adjDb -= AdjacentChannelLeakageDB
	}
	b, memo := e.oriented(tx, rx)
	if memo.ok && memo.txGen == tx.patGen && memo.rxGen == rx.patGen {
		return memo.kmw, adjDb
	}
	kmw = b.PowerMw(tx.txGain, rx.rxGain)
	*memo = pairMemo{kmw: kmw, txGen: tx.patGen, rxGen: rx.patGen, ok: true}
	return kmw, adjDb
}

// RxPowerDBm computes the instantaneous received power at rx for a
// transmission from tx with their current patterns (no fading draw).
func (m *Medium) RxPowerDBm(tx, rx *Radio) float64 {
	kmw, adjDb := m.pairPower(tx, rx)
	if kmw <= 0 {
		return math.Inf(-1)
	}
	return rf.LinToDb(kmw) + adjDb
}

// EffectiveSNRdB maps a received power to the effective SNR under the
// medium's budget, EVM ceiling included — the RSSI the MAC layers read.
// Equivalent to Budget.EffectiveSINRdB(Budget.SNRdB(p)) at one log.
func (m *Medium) EffectiveSNRdB(rxPowerDBm float64) float64 {
	m.beval.Sync(m.Budget)
	return m.beval.EffectiveSNRdB(rxPowerDBm)
}

// SweepTxPowerDBm evaluates every transmit pattern in txGains over the
// tx→rx channel in one batch call — the sector-sweep primitive behind
// beam training. rxGain is the receive-side pattern (the peer's
// quasi-omni probe). The returned slice holds the received power in dBm
// per pattern, indexed like txGains; it is medium-owned scratch,
// overwritten by the next sweep.
func (m *Medium) SweepTxPowerDBm(tx, rx *Radio, txGains []GainFunc, rxGain GainFunc) []float64 {
	e := m.pairFor(tx, rx)
	b, _ := e.oriented(tx, rx)
	if cap(m.sweepDst) < len(txGains) {
		m.sweepDst = make([]float64, len(txGains))
	}
	dst := m.sweepDst[:len(txGains)]
	if cap(m.sweepRxLin) < b.Len() {
		m.sweepRxLin = make([]float64, b.Len())
	}
	b.SweepPowerMw(dst, txGains, rxGain, m.sweepRxLin[:b.Len()])
	adjDb := tx.TxPowerDBm - m.ExtraLossDB + e.offsetDb
	if tx.Channel != rx.Channel {
		adjDb -= AdjacentChannelLeakageDB
	}
	for s, mw := range dst {
		if mw <= 0 {
			dst[s] = math.Inf(-1)
		} else {
			dst[s] = rf.LinToDb(mw) + adjDb
		}
	}
	return dst
}

// EnergyDBm returns the total power currently on air at radio r,
// excluding r's own transmissions — the energy-detect input to carrier
// sensing. The D5000's observed deferral to WiHD frames (Fig. 21b) runs
// through this.
func (m *Medium) EnergyDBm(r *Radio) float64 {
	now := m.Sched.Now()
	total := 0.0
	// Only frames still on air can contribute; the live list excludes the
	// pruneWindow tail of ended frames the active list retains, so this
	// scan stays proportional to actual channel occupancy. The end guard
	// remains for frames ending exactly now (their finish has not yet
	// removed them when a handler senses the channel mid-cascade).
	for _, t := range m.live {
		if t.tx == r || t.end <= now || r.ID >= len(t.rxPowerMw) {
			continue
		}
		total += t.rxPowerMw[r.ID]
	}
	if audit.On() {
		m.auditEnergy(r, now, total)
	}
	if total == 0 {
		return math.Inf(-1)
	}
	return rf.LinToDb(total)
}

// auditEnergy re-derives the energy-detect total independently — walking
// the full retained active list in reverse rather than the live-list
// shortcut the fast path scans — and confirms the two accumulations
// agree, catching any drift between the live bookkeeping and what is
// actually on air. It also sweeps the active list for transmissions that
// end before they start.
func (m *Medium) auditEnergy(r *Radio, now Time, total float64) {
	check := 0.0
	for i := len(m.active) - 1; i >= m.activeHead; i-- {
		t := m.active[i]
		if t.end < t.start {
			audit.Reportf(audit.RuleMediumTxDuration, now,
				"active transmission from %s ends at %v before its start %v", t.tx.Name, t.end, t.start)
		}
		if t.tx == r || t.end <= now || r.ID >= len(t.rxPowerMw) {
			continue
		}
		check += t.rxPowerMw[r.ID]
	}
	// The two sums accumulate the same terms in opposite orders; any gap
	// beyond float rounding means a contribution was double-counted or
	// dropped.
	tol := 1e-9 * math.Max(total, check)
	if diff := math.Abs(total - check); diff > tol && diff > 1e-300 {
		audit.Reportf(audit.RuleMediumEnergyConserved, now,
			"energy-detect at %s: forward sum %.6g mW vs independent sum %.6g mW", r.Name, total, check)
	}
}

// Busy reports whether the air at r carries energy above the threshold.
func (m *Medium) Busy(r *Radio, thresholdDBm float64) bool {
	return m.EnergyDBm(r) >= thresholdDBm
}

// Transmit puts the frame on air from radio r now. Reception callbacks
// fire at the frame end on every other radio above its listen floor.
func (m *Medium) Transmit(r *Radio, f phy.Frame) {
	now := m.Sched.Now()
	// The MCS legality check runs before Duration(): an off-ladder MCS
	// would panic inside the rate lookup, and the audit must classify it
	// under its rule first (in strict mode the violation panic wins).
	if audit.On() && (f.MCS < phy.MCS0 || f.MCS > phy.MaxDataMCS) {
		audit.Reportf(audit.RulePhyMCSRange, now,
			"%s frame from %s carries MCS %d (ladder is %d..%d)",
			f.Type, r.Name, int(f.MCS), int(phy.MCS0), int(phy.MaxDataMCS))
	}
	t := m.newTransmission()
	t.frame = f
	t.tx = r
	t.start = now
	t.end = now + f.Duration()
	if n := len(m.radios); cap(t.rxPowerMw) < n {
		t.rxPowerMw = make([]float64, n)
	} else {
		t.rxPowerMw = t.rxPowerMw[:n]
	}
	if audit.On() && (t.end <= t.start || t.end-t.start >= pruneWindow) {
		audit.Reportf(audit.RuleMediumTxDuration, now,
			"%s frame from %s occupies the air for %v (must be positive and under the %v retention window)",
			f.Type, r.Name, t.end-t.start, pruneWindow)
	}
	for _, rx := range m.radios {
		if rx == r {
			t.rxPowerMw[rx.ID] = 0
			continue
		}
		kmw, adjDb := m.pairPower(r, rx)
		// The fading draw is unconditional per non-self receiver (when
		// enabled) to keep the deterministic rng stream aligned even for
		// dead channels.
		if m.FadingSigmaDB > 0 {
			adjDb += m.rng.Norm(0, m.FadingSigmaDB)
		}
		t.rxPowerMw[rx.ID] = kmw * rf.DbToLin(adjDb)
	}
	m.launch(t)
}

// launch puts a prepared transmission on air at the current clock: it
// joins the start-ordered active list and the live list, widens maxDur if
// it is the longest frame yet, and schedules its finish.
func (m *Medium) launch(t *transmission) {
	if d := t.end - t.start; d > m.maxDur {
		m.maxDur = d
	}
	m.active = append(m.active, t)
	t.liveIdx = len(m.live)
	m.live = append(m.live, t)
	m.Sched.At(t.end, t.fire)
}

// newTransmission pops a recycled transmission or builds a fresh one.
// The finish callback is bound once here and reused across recycles, so
// scheduling the end-of-frame event never allocates a closure.
func (m *Medium) newTransmission() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return t
	}
	t := &transmission{}
	t.fire = func() { m.finish(t) }
	return t
}

// releaseTransmission recycles a transmission pruned from the active
// list, dropping references the pooled struct must not keep alive.
func (m *Medium) releaseTransmission(t *transmission) {
	t.frame = phy.Frame{}
	t.tx = nil
	m.txFree = append(m.txFree, t)
}

// pruneWindow keeps ended transmissions around long enough that frames
// still in flight can account for their interference; no single PPDU in
// either protocol lasts longer than a WiHD video burst (≤180 µs), so
// 400 µs is ample while keeping the active list short. The audit layer
// enforces the bound: Transmit flags any air time of pruneWindow or more
// under medium.tx.duration.
const pruneWindow = 400 * time.Microsecond

// pruneActive releases the prefix of the active list that ended at least
// pruneWindow before now. Expired entries behind a still-retained one
// wait for the prefix to reach them (at most maxDur longer); finish()
// skips them by the same predicate. Once the dead prefix is as long as
// the retained tail, the tail is shifted down in place, so the backing
// array never grows past twice the retained count and the pass stays
// amortised O(1) per pruned entry without allocating.
func (m *Medium) pruneActive(now Time) {
	cut := now - pruneWindow
	h := m.activeHead
	for h < len(m.active) && m.active[h].end <= cut {
		m.releaseTransmission(m.active[h])
		m.active[h] = nil
		h++
	}
	if n := len(m.active) - h; h > 0 && h >= n {
		copy(m.active, m.active[h:])
		clear(m.active[n:])
		m.active = m.active[:n]
		h = 0
	}
	m.activeHead = h
}

// overlapWindow returns the index of the first retained entry that
// started after from. Since active is in start order and no entry lasts
// longer than maxDur, every entry before it ended by from + maxDur.
func (m *Medium) overlapWindow(from Time) int {
	i, j := m.activeHead, len(m.active)
	for i < j {
		h := int(uint(i+j) >> 1)
		if m.active[h].start <= from {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// finish completes a transmission: computes the outcome at every radio
// and prunes stale entries. Ended transmissions stay in the list for
// pruneWindow so that longer frames they overlapped still see their
// interference contribution.
//
// The overlap set (interferers plus overlap fractions, reused across
// every delivery of the ended frame) is staged from a window of the
// active list rather than the whole of it: an entry a overlapping t has
// a.end > t.start, so a.start > t.start - maxDur, and overlapWindow finds
// the first such entry by binary search. Within the window the predicate
// is the full scan's, in the same order, so ovTx/ovFrac and the sums
// built from them are bit-identical to scanning every retained entry.
func (m *Medium) finish(t *transmission) {
	now := m.Sched.Now()
	// The frame leaves the air: swap-remove it from the live list (each
	// transmission gets exactly one finish, at its own end time).
	if n := len(m.live) - 1; t.liveIdx <= n && m.live[t.liveIdx] == t {
		last := m.live[n]
		m.live[t.liveIdx] = last
		last.liveIdx = t.liveIdx
		m.live[n] = nil
		m.live = m.live[:n]
	}
	m.pruneActive(now)
	m.ovTx = m.ovTx[:0]
	m.ovFrac = m.ovFrac[:0]
	if dur := float64(t.end - t.start); dur > 0 {
		cut := now - pruneWindow
		for _, a := range m.active[m.overlapWindow(t.start-m.maxDur):] {
			if a.end <= cut || a == t || a.tx == t.tx {
				continue
			}
			ovStart := maxTime(t.start, a.start)
			ovEnd := minTime(t.end, a.end)
			if ovEnd <= ovStart {
				continue
			}
			m.ovTx = append(m.ovTx, a)
			m.ovFrac = append(m.ovFrac, float64(ovEnd-ovStart)/dur)
		}
	}
	m.beval.Sync(m.Budget)
	for _, rx := range m.radios {
		if rx == t.tx || rx.Handler == nil || rx.ID >= len(t.rxPowerMw) {
			continue
		}
		p := t.rxPowerMw[rx.ID]
		if p <= 0 || p < rx.listenFloorMw() {
			continue
		}
		if m.deliveryFilter != nil && !m.deliveryFilter(t.frame, t.tx, rx) {
			continue
		}
		intfMw, collided := m.interferenceMw(rx)
		sinr := m.beval.EffectiveSINRdBFromMw(p, intfMw)
		bits := t.frame.PayloadBytes * 8
		if bits <= 0 {
			bits = 160
		}
		per := t.frame.MCS.PER(sinr, bits)
		pDBm := rf.LinToDb(p)
		if audit.On() {
			m.auditDelivery(t, rx, pDBm, sinr, per, now)
		}
		intfDBm := math.Inf(-1)
		if intfMw > 0 {
			intfDBm = rf.LinToDb(intfMw)
		}
		ok := !m.rng.Bool(per)
		rx.Handler.OnFrame(t.frame, Reception{
			From:            t.tx.ID,
			PowerDBm:        pDBm,
			InterferenceDBm: intfDBm,
			SINRdB:          sinr,
			OK:              ok,
			Collided:        collided,
			Start:           t.start,
			End:             t.end,
		})
	}
}

// MaxArrayGainDB bounds the coupled transmit-plus-receive array gain any
// lawful delivery can enjoy: phased arrays in this class top out well
// under 25 dBi a side, and every real path adds loss on top, so a frame
// arriving above TxPowerDBm+MaxArrayGainDB means a sign or accounting
// bug in the power bookkeeping, not a good antenna.
const MaxArrayGainDB = 50

// auditDelivery checks the PHY lawfulness of one frame delivery:
// received power bounded by the link budget, PER a probability, and the
// effective SINR under the EVM ceiling.
func (m *Medium) auditDelivery(t *transmission, rx *Radio, p, sinr, per float64, now Time) {
	if p > t.tx.TxPowerDBm+MaxArrayGainDB {
		audit.Reportf(audit.RuleMediumRxOverpower, now,
			"%s frame %s→%s delivered at %.1f dBm, above tx power %.1f dBm + %d dB max array gain",
			t.frame.Type, t.tx.Name, rx.Name, p, t.tx.TxPowerDBm, MaxArrayGainDB)
	}
	if math.IsNaN(per) || per < 0 || per > 1 {
		audit.Reportf(audit.RulePhyPERRange, now,
			"PER %v for %s frame %s→%s at SINR %.2f dB", per, t.frame.Type, t.tx.Name, rx.Name, sinr)
	}
	// The distortion floor adds like noise, so the effective SINR can
	// approach the ceiling but never pass it.
	if m.Budget.EVMFloorDB > 0 && sinr > m.Budget.EVMFloorDB+1e-9 {
		audit.Reportf(audit.RulePhySINREVMCap, now,
			"effective SINR %.3f dB above the %.1f dB EVM ceiling (%s→%s)",
			sinr, m.Budget.EVMFloorDB, t.tx.Name, rx.Name)
	}
}

// interferenceMw returns the overlap-weighted interference power in mW
// seen by rx for the frame whose overlap set finish() staged in
// ovTx/ovFrac. Each interferer contributes its received power scaled by
// the fraction of the frame's air-time it overlapped (bit errors are
// proportional to exposure). With the slabs already linear this is pure
// loads and multiplies — no transcendental per interferer.
func (m *Medium) interferenceMw(rx *Radio) (float64, bool) {
	totalMw := 0.0
	collided := false
	for i, o := range m.ovTx {
		if o.tx == rx || rx.ID >= len(o.rxPowerMw) {
			continue
		}
		p := o.rxPowerMw[rx.ID]
		if p <= 0 {
			continue
		}
		totalMw += p * m.ovFrac[i]
		collided = true
	}
	return totalMw, collided
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
