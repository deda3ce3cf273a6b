// Package wigig models the Dell D5000 / Latitude E7440 WiGig link at the
// frame level: quasi-omni device discovery sweeps, association and beam
// training, CSMA/CA channel access with RTS/CTS-protected TXOP bursts,
// load-driven A-MPDU aggregation, block acknowledgements with
// retransmission, joint rate adaptation and beam realignment, and link
// breakage. Every timing constant the paper measures (Table 1, Figs.
// 3/8/9/10/11) is expressed directly here.
package wigig

import (
	"fmt"
	"time"

	"repro/internal/antenna"
	"repro/internal/audit"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Protocol timing and policy constants, calibrated to the paper.
const (
	// DiscoveryInterval is the period of the D5000's device discovery
	// frame when unassociated (Table 1: 102.4 ms).
	DiscoveryInterval = 102400 * time.Microsecond
	// BeaconInterval is the associated-state beacon period (Table 1:
	// 1.1 ms).
	BeaconInterval = 1100 * time.Microsecond
	// MaxTXOP bounds a data burst (§4.1: "maximum length of such bursts
	// is 2 ms").
	MaxTXOP = 2 * time.Millisecond
	// MaxAggAir bounds one aggregated PPDU's air-time (§4.1: "the
	// highest level we observed corresponds to a frame duration of
	// 25 µs").
	MaxAggAir = 25 * time.Microsecond
	// RetryLimit is the per-frame retransmission budget.
	RetryLimit = 7
	// CSThresholdDBm is the energy-detect carrier sensing threshold; the
	// paper infers the D5000 senses (and defers to) WiHD frames
	// (Fig. 21b).
	CSThresholdDBm = -60.0
	// CWMin and CWMax bound the binary exponential backoff window, in
	// slots.
	CWMin = 8
	CWMax = 64
	// DIFS is the idle period required before backoff countdown.
	DIFS = phy.SIFS + 2*phy.SlotTime
	// MinDataMCS is the floor of rate adaptation: the paper observes
	// links break rather than run below ≈1 Gbps (§4.1 / Fig. 13).
	MinDataMCS = phy.MCS4
	// RateMarginDB backs MCS selection off the raw SNR estimate.
	RateMarginDB = 1.0
	// RealignDropDB triggers beam re-training when the smoothed beacon
	// power falls this far below the post-training level (Fig. 14 links
	// rate steps to exactly these events).
	RealignDropDB = 3.0
	// BeaconLossLimit breaks the link after this many silent beacon
	// periods.
	BeaconLossLimit = 16
	// ConsecFailLimit breaks the link after this many consecutive ACK
	// timeouts. Interference is bursty — a TXOP's worth of collisions
	// must not tear the association down, so this allows ≈8 ms of
	// uninterrupted failure before giving up.
	ConsecFailLimit = 200
	// LowSNRBeaconLimit breaks the link after this many consecutive
	// beacons whose SNR cannot sustain the minimum data MCS (≈170 ms) —
	// the out-of-range condition behind the Fig. 13 cliffs.
	LowSNRBeaconLimit = 150
	// DefaultQueueLimit bounds the transmit queue in MPDUs.
	DefaultQueueLimit = 1024
)

// Role distinguishes the docking station (discovery initiator) from the
// notebook station.
type Role int

// The two ends of a D5000 link.
const (
	Dock Role = iota
	Station
)

// String names the role for logs and reports.
func (r Role) String() string {
	if r == Dock {
		return "dock"
	}
	return "station"
}

// State is the device's protocol state.
type State int

// Protocol states; the paper identifies the same three stages (§4.1).
const (
	StateDiscovery State = iota
	StateAssociating
	StateAssociated
)

var stateNames = [...]string{"discovery", "associating", "associated"}

// String names the protocol state for logs and reports.
func (s State) String() string { return stateNames[s] }

// Config describes one device.
type Config struct {
	// Name labels the device in traces.
	Name string
	// Role selects dock or station behaviour.
	Role Role
	// Pos is the device position (meters).
	Pos geom.Vec2
	// BoresightDeg is the mounting orientation of the antenna array in
	// degrees (global frame). Rotating the dock 70° relative to the LOS
	// reproduces the paper's misaligned experiments.
	BoresightDeg float64
	// FreqHz is the channel center frequency; 0 selects channel 2
	// (60.48 GHz).
	FreqHz float64
	// Seed derives the device's random streams and codebook.
	Seed uint64
	// QueueLimit overrides DefaultQueueLimit when > 0.
	QueueLimit int
	// TxPowerDBm overrides the default budget's conducted power when
	// non-zero.
	TxPowerDBm float64
	// Channel selects the 60 GHz channel (0 = 60.48 GHz, 1 = 62.64 GHz).
	// The D5000's application exposes exactly this knob (§3.1).
	Channel int
}

// Device is one end of a WiGig link.
type Device struct {
	cfg   Config
	med   *sim.Medium
	sched *sim.Scheduler
	radio *sim.Radio
	cb    *antenna.Codebook
	rng   *stats.RNG
	peer  *Device

	state  State
	sector int

	txq          *mac.Queue
	seq          int64
	lastRxSeq    int64
	inTXOP       bool
	txopEnd      sim.Time
	accessing    bool
	cw           int
	backoff      int
	retries      int
	consecFails  int
	pending      *aggregate
	pendingFrame phy.Frame
	awaitingCTS  bool
	// aggFree pools aggregates whose lifetime has provably ended (see
	// releasePending).
	aggFree []*aggregate

	ackTimer    sim.Timer
	ctsTimer    sim.Timer
	accessTimer sim.Timer

	mcs             phy.MCS
	snrEst          *stats.EWMA
	lossEst         *stats.EWMA
	powerEst        *stats.EWMA
	trainedPowerDBm float64
	refPending      bool
	lowSNRBeacons   int
	lastHeard       sim.Time
	deferredCS      bool

	txBusyUntil sim.Time
	// deferred holds frames waiting for the device's own transmission to
	// end, oldest first; each has one transmitDeferredFn event pending.
	deferred    frameFIFO
	qoListen    int
	maxAggAir   time.Duration
	breakReason string
	navUntil    sim.Time

	// oriented holds the codebook's gain functions pre-oriented at the
	// mounting boresight, which is fixed for the device's lifetime —
	// beam switches reuse these instead of allocating a closure per
	// pattern change (the discovery sweep switches per sub-element).
	oriented *mac.OrientedCodebook
	// Pre-bound scheduler callbacks: binding each method value once here
	// keeps the per-frame CSMA/beacon/retransmission loops free of
	// closure allocations.
	accessSlotFn       func()
	sendDataFrameFn    func()
	onAckTimeoutFn     func()
	beaconTickFn       func()
	rotateListenFn     func()
	discoverySweepFn   func()
	beaconRetryFn      func()
	ctsTimeoutFn       func()
	ctsReplyFn         func()
	beaconReplyFn      func()
	sendAckFn          func()
	transmitDeferredFn func()
	// ackSeq is the sequence number the pending block-ACK (sendAckFn)
	// acknowledges; data frames are serialized per link, so at most one
	// ACK is pending at a time.
	ackSeq int64
	// beaconAttempt counts busy-air deferrals of the current beacon.
	beaconAttempt int

	// trainingFault, when set, intercepts every sector-sweep outcome:
	// it receives the honest winner and the codebook size and returns
	// the sector actually adopted. The fault injector uses it to model
	// corrupted SLS feedback (the paper's §4.1 training exchanges run
	// unprotected at the lowest MCS).
	trainingFault func(best, sectors int) int
	// clockSkewPPM dilates the device's periodic timers, modelling a
	// drifting reference oscillator (positive = slow clock).
	clockSkewPPM float64

	// Stats collects link-level counters.
	Stats mac.Stats
	// OnStateChange, if set, observes protocol transitions.
	OnStateChange func(State)
}

// NewDevice creates a device on the medium. Call Connect to pair a dock
// with a station, then Start.
func NewDevice(med *sim.Medium, cfg Config) *Device {
	if cfg.FreqHz == 0 {
		cfg.FreqHz = 60.48e9
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	_, cb := antenna.D5000Codebook(cfg.FreqHz, cfg.Seed|1)
	d := &Device{
		cfg:       cfg,
		med:       med,
		sched:     med.Sched,
		cb:        cb,
		rng:       stats.NewRNG(cfg.Seed ^ 0xD5000),
		txq:       mac.NewQueue(cfg.QueueLimit),
		lastRxSeq: -1,
		cw:        CWMin,
		mcs:       MinDataMCS,
		snrEst:    stats.NewEWMA(0.2),
		lossEst:   stats.NewEWMA(0.05),
		powerEst:  stats.NewEWMA(0.1),
	}
	d.oriented = mac.OrientCodebook(cb, d.boresight())
	d.accessSlotFn = d.accessSlot
	d.sendDataFrameFn = d.sendDataFrame
	d.onAckTimeoutFn = d.onAckTimeout
	d.beaconTickFn = d.beaconTick
	d.rotateListenFn = d.rotateListen
	d.discoverySweepFn = d.discoverySweep
	d.beaconRetryFn = d.sendBeacon
	d.ctsTimeoutFn = d.onCTSTimeout
	d.ctsReplyFn = d.sendCTSReply
	d.beaconReplyFn = d.sendBeaconReply
	d.sendAckFn = d.sendAck
	d.transmitDeferredFn = d.transmitDeferred
	d.radio = med.AddRadio(&sim.Radio{
		Name:       cfg.Name,
		Pos:        cfg.Pos,
		TxPowerDBm: cfg.TxPowerDBm,
		Channel:    cfg.Channel,
		Handler:    sim.HandlerFunc(d.onFrame),
	})
	d.setQuasiOmni(0)
	// Unassociated devices rotate their quasi-omni listening pattern so
	// that a deep gap towards the peer (Fig. 16) never pins discovery:
	// the sweep of patterns guarantees some codeword eventually hears.
	d.sched.After(listenRotatePeriod, d.rotateListenFn)
	return d
}

// listenRotatePeriod paces the unassociated listening-pattern rotation.
const listenRotatePeriod = 3 * time.Millisecond

func (d *Device) rotateListen() {
	if d.state != StateAssociated {
		d.qoListen = (d.qoListen + 1) % len(d.cb.QuasiOmni)
		d.setQuasiOmni(d.qoListen)
	}
	d.sched.After(listenRotatePeriod, d.rotateListenFn)
}

// Connect pairs two devices (one Dock, one Station).
func Connect(a, b *Device) {
	a.peer = b
	b.peer = a
}

// Start launches the protocol: the dock begins its discovery sweeps.
func (d *Device) Start() {
	if d.cfg.Role == Dock {
		d.scheduleDiscovery(0)
	}
}

// Radio exposes the underlying radio (experiments move or re-aim it).
func (d *Device) Radio() *sim.Radio { return d.radio }

// Name returns the device's trace label.
func (d *Device) Name() string { return d.cfg.Name }

// SetTrainingFault installs (or, with nil, removes) a sector-sweep
// interceptor: fn receives the honest sweep winner and the codebook size
// and returns the sector the device adopts instead. The fault injector
// drives this to model corrupted training feedback.
func (d *Device) SetTrainingFault(fn func(best, sectors int) int) { d.trainingFault = fn }

// SetClockSkewPPM sets the reference-oscillator error in parts per
// million; positive values slow the device's periodic timers (beacons,
// discovery sweeps). Zero restores a perfect clock.
func (d *Device) SetClockSkewPPM(ppm float64) { d.clockSkewPPM = ppm }

// dilate stretches a nominal interval by the current clock skew.
func (d *Device) dilate(t time.Duration) time.Duration {
	if d.clockSkewPPM == 0 {
		return t
	}
	return time.Duration(float64(t) * (1 + d.clockSkewPPM*1e-6))
}

// trainSector runs one sector sweep against the peer and returns the
// adopted index, routed through the training-fault hook when installed.
func (d *Device) trainSector() int {
	idx, _ := mac.SelectSector(d.med, d.radio, d.peer.radio, d.oriented)
	if d.trainingFault != nil {
		if n := len(d.cb.Sectors); n > 0 {
			idx = ((d.trainingFault(idx, n) % n) + n) % n
		}
	}
	return idx
}

// Codebook exposes the device's beam codebook.
func (d *Device) Codebook() *antenna.Codebook { return d.cb }

// State returns the protocol state.
func (d *Device) State() State { return d.state }

// Associated reports whether the link is up.
func (d *Device) Associated() bool { return d.state == StateAssociated }

// CurrentMCS returns the MCS the device would use for data right now —
// the "reported PHY rate" of the D5000 driver application (Fig. 12).
func (d *Device) CurrentMCS() phy.MCS { return d.mcs }

// RateBps returns the reported PHY rate in bits per second.
func (d *Device) RateBps() float64 { return d.mcs.RateBps() }

// SNREstimate returns the smoothed link SNR in dB.
func (d *Device) SNREstimate() float64 { return d.snrEst.Value() }

// QueueLen returns the transmit queue depth in MPDUs.
func (d *Device) QueueLen() int { return d.txq.Len() }

// Sector returns the trained sector index (-1 before training).
func (d *Device) Sector() int {
	if d.state != StateAssociated {
		return -1
	}
	return d.sector
}

// SetTxPowerDBm adjusts the conducted transmit power at run time — the
// paper's §5 "Range" design principle: devices should control power to
// bound interference even in quasi-static homes. The power-control
// ablation bench drives this knob.
func (d *Device) SetTxPowerDBm(p float64) { d.radio.TxPowerDBm = p }

// SetMaxAggAir overrides the per-PPDU aggregation air-time cap. The
// D5000's Ethernet tunnel minimizes latency by sending many small
// frames instead of aggregating (§4.4, Fig. 23 discussion); a low cap
// reproduces that mode. Zero restores the default 25 µs.
func (d *Device) SetMaxAggAir(t time.Duration) { d.maxAggAir = t }

// Send enqueues one MPDU for the peer. It reports false when the queue
// is full or the link is down.
func (d *Device) Send(m mac.MPDU) bool {
	if d.state != StateAssociated {
		return false
	}
	if !d.txq.Push(m) {
		return false
	}
	d.startAccess()
	return true
}

// boresight returns the array mounting angle in radians.
func (d *Device) boresight() float64 { return geom.Rad(d.cfg.BoresightDeg) }

func (d *Device) setQuasiOmni(idx int) {
	g := d.oriented.QuasiOmni(idx)
	d.radio.SetTxPattern(g)
	d.radio.SetRxPattern(g)
}

func (d *Device) setSector(idx int) {
	d.sector = idx
	g := d.oriented.Sector(idx)
	d.radio.SetTxPattern(g)
	d.radio.SetRxPattern(g)
}

// transmit serializes the device's own transmissions (half duplex).
// A frame that finds the device still on air waits in the deferred FIFO
// for txBusyUntil. That field is written only here, after the busy
// check, so it never decreases: every deferral is scheduled no earlier
// than the ones before it, and the scheduler runs same-time events in
// scheduling order — so the deferred events fire in push order and each
// pops exactly the frame it was scheduled for.
func (d *Device) transmit(f phy.Frame) {
	now := d.sched.Now()
	agg, _ := f.Payload.(*aggregate)
	if now < d.txBusyUntil {
		if agg != nil {
			agg.deferred++
		}
		d.deferred.push(f)
		d.sched.At(d.txBusyUntil, d.transmitDeferredFn)
		return
	}
	if audit.On() && f.Type == phy.FrameData && d.state != StateAssociated {
		audit.Reportf(audit.RuleWiGigDataBeforeAssoc, now,
			"%s put a data frame (seq %d) on air in state %s", d.cfg.Name, f.Seq, d.state)
	}
	d.txBusyUntil = now + f.Duration()
	if agg != nil {
		agg.airEnd = d.txBusyUntil
	}
	d.med.Transmit(d.radio, f)
}

// transmitDeferred retries the oldest deferred frame (pre-bound as
// transmitDeferredFn).
func (d *Device) transmitDeferred() {
	f := d.deferred.pop()
	if agg, ok := f.Payload.(*aggregate); ok {
		agg.deferred--
	}
	d.transmit(f)
}

// frameFIFO is a FIFO of frames over one retained backing array, with
// mac.Queue's compaction rule: the live frames are buf[head:], and the
// tail shifts down once the dead prefix is as long as it.
type frameFIFO struct {
	buf  []phy.Frame
	head int
}

func (q *frameFIFO) push(f phy.Frame) { q.buf = append(q.buf, f) }

func (q *frameFIFO) pop() phy.Frame {
	f := q.buf[q.head]
	q.buf[q.head] = phy.Frame{}
	h := q.head + 1
	if live := len(q.buf) - h; h >= live {
		copy(q.buf, q.buf[h:])
		clear(q.buf[live:])
		q.buf = q.buf[:live]
		h = 0
	}
	q.head = h
	return f
}

// aggregate is the MPDU batch one data frame carries to the receiver,
// pointed to by Frame.Payload (boxing a pointer into the interface does
// not allocate). Aggregates are pooled per device; releasePending
// decides when one may be reused.
type aggregate struct {
	mpdus []mac.MPDU
	// deferred counts copies of the frame waiting in the deferred FIFO.
	deferred int
	// airEnd is the end of the latest on-air attempt.
	airEnd sim.Time
}

// newAggregate fills a pooled (or fresh) aggregate with a copy of mpdus.
func (d *Device) newAggregate(mpdus []mac.MPDU) *aggregate {
	var agg *aggregate
	if n := len(d.aggFree); n > 0 {
		agg = d.aggFree[n-1]
		d.aggFree[n-1] = nil
		d.aggFree = d.aggFree[:n-1]
	} else {
		agg = &aggregate{}
	}
	agg.mpdus = append(agg.mpdus[:0], mpdus...)
	return agg
}

// releasePending drops the pending aggregate. It returns to the pool
// only when nothing can still read it: no deferred copy of its frame is
// queued, and its latest attempt left the air strictly before now, so
// the medium's finish event has already delivered it (an event at
// exactly airEnd may not have run yet). Otherwise — a late ACK while a
// retransmission is on air, a link break mid-frame — the buffer is left
// to the garbage collector.
func (d *Device) releasePending() {
	agg := d.pending
	d.pending = nil
	if agg == nil || agg.deferred > 0 || agg.airEnd >= d.sched.Now() {
		return
	}
	clear(agg.mpdus) // drop the delivery callbacks' references
	d.aggFree = append(d.aggFree, agg)
}

// --- Discovery ---------------------------------------------------------

func (d *Device) scheduleDiscovery(delay sim.Time) {
	d.sched.After(d.dilate(delay), d.discoverySweepFn)
}

// discoverySweep emits the 32-sub-element discovery frame of Fig. 3:
// each sub-element is sent on its own quasi-omni pattern, back to back.
func (d *Device) discoverySweep() {
	if d.state == StateAssociated {
		return
	}
	for i := 0; i < phy.DiscoverySubElements; i++ {
		i := i
		at := d.sched.Now() + sim.Time(i)*phy.DiscoverySubElementDuration
		d.sched.At(at, func() {
			if d.state == StateAssociated {
				return
			}
			d.radio.SetTxPattern(d.oriented.QuasiOmni(i))
			d.med.Transmit(d.radio, phy.Frame{
				Type: phy.FrameDiscovery,
				Src:  d.radio.ID,
				Dst:  -1,
				// One sub-element of the sweep; duration comes from Meta
				// via the sniffer, air-time from the sub-element length.
				PayloadBytes: 0,
				Meta:         i,
			})
		})
	}
	d.scheduleDiscovery(DiscoveryInterval)
}

// --- Association and beam training -------------------------------------

func (d *Device) onDiscoveryHeard(rx sim.Reception) {
	if d.cfg.Role != Station || d.state != StateDiscovery || d.peer == nil {
		return
	}
	if rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	d.setState(StateAssociating)
	// Respond shortly after the sweep with an association request on a
	// quasi-omni pattern.
	d.sched.After(200*time.Microsecond, func() {
		if d.state != StateAssociating {
			return
		}
		d.transmit(phy.Frame{Type: phy.FrameAssocReq, Src: d.radio.ID, Dst: d.peer.radio.ID})
		// If the dock never answers, fall back to discovery.
		d.sched.After(20*time.Millisecond, func() {
			if d.state == StateAssociating {
				d.setState(StateDiscovery)
			}
		})
	})
}

func (d *Device) onAssocReq(rx sim.Reception) {
	if d.cfg.Role != Dock || d.peer == nil || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	if d.state == StateAssociated {
		return
	}
	// Beam training: pick the best transmit sector towards the peer (the
	// SLS fixed point), then answer.
	d.setSector(d.trainSector())
	d.resetPowerReference()
	d.sched.After(phy.SIFS, func() {
		d.transmit(phy.Frame{Type: phy.FrameAssocResp, Src: d.radio.ID, Dst: d.peer.radio.ID})
		d.associate()
	})
}

func (d *Device) onAssocResp(rx sim.Reception) {
	if d.cfg.Role != Station || d.state != StateAssociating || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	d.setSector(d.trainSector())
	d.resetPowerReference()
	d.associate()
}

// resetPowerReference clears the smoothed beacon power and re-anchors
// the realignment reference from the first beacons received with the
// newly trained sectors (the training probe itself runs against a
// quasi-omni peer and is not comparable to operational levels).
func (d *Device) resetPowerReference() {
	d.powerEst.Reset()
	d.refPending = true
}

func (d *Device) associate() {
	d.setState(StateAssociated)
	d.lastHeard = d.sched.Now()
	d.consecFails = 0
	d.cw = CWMin
	// Initial MCS from a direct channel probe; subsequent adaptation
	// follows beacon SNR.
	snr := d.med.EffectiveSNRdB(d.med.RxPowerDBm(d.peer.radio, d.radio))
	d.snrEst.Reset()
	d.snrEst.Update(snr)
	d.adaptRate()
	if d.cfg.Role == Dock {
		d.sched.After(d.dilate(BeaconInterval), d.beaconTickFn)
	}
	if d.txq.Len() > 0 {
		d.startAccess()
	}
}

func (d *Device) setState(s State) {
	if d.state == s {
		return
	}
	d.state = s
	if d.OnStateChange != nil {
		d.OnStateChange(s)
	}
}

var debugBreak func(who string, reason string)

// linkBreak tears the association down; the dock resumes discovery.
func (d *Device) linkBreak() {
	if debugBreak != nil {
		debugBreak(d.cfg.Name, d.breakReason)
	}
	if d.state != StateAssociated {
		return
	}
	d.Stats.LinkBreaks++
	d.teardown()
	if d.peer != nil && d.peer.state == StateAssociated {
		d.peer.teardown()
		d.peer.Stats.LinkBreaks++
	}
	if d.cfg.Role == Dock {
		d.scheduleDiscovery(10 * time.Millisecond)
	} else if d.peer != nil && d.peer.cfg.Role == Dock {
		d.peer.scheduleDiscovery(10 * time.Millisecond)
	}
}

func (d *Device) teardown() {
	d.setState(StateDiscovery)
	d.txq.Clear()
	d.inTXOP = false
	d.accessing = false
	d.awaitingCTS = false
	d.releasePending()
	d.ackTimer.Cancel()
	d.ctsTimer.Cancel()
	d.accessTimer.Cancel()
	d.setQuasiOmni(0)
}

// --- Beacons, rate adaptation, realignment ------------------------------

func (d *Device) beaconTick() {
	if d.state != StateAssociated {
		return
	}
	// Silent peer: break the link.
	if d.sched.Now()-d.lastHeard > BeaconLossLimit*BeaconInterval {
		d.breakReason = "beaconLoss"
		d.linkBreak()
		return
	}
	// Send the beacon unless mid-burst, deferring briefly around ongoing
	// exchanges (a beacon launched into the peer's TXOP would corrupt a
	// data frame — the real device schedules beacons into gaps).
	if !d.inTXOP {
		d.beaconAttempt = 0
		d.sendBeacon()
	}
	d.sched.After(d.dilate(BeaconInterval), d.beaconTickFn)
}

func (d *Device) sendBeacon() {
	if d.state != StateAssociated || d.inTXOP {
		return
	}
	now := d.sched.Now()
	if d.beaconAttempt < 12 &&
		(d.med.Busy(d.radio, CSThresholdDBm) || now < d.navUntil || now < d.txBusyUntil) {
		d.beaconAttempt++
		d.sched.After(30*time.Microsecond, d.beaconRetryFn)
		return
	}
	d.transmit(phy.Frame{Type: phy.FrameBeacon, Src: d.radio.ID, Dst: d.peer.radio.ID})
}

func (d *Device) onBeacon(rx sim.Reception) {
	if d.state != StateAssociated || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	d.lastHeard = d.sched.Now()
	// Channel quality is estimated from received signal strength (the
	// preamble RSSI), not from instantaneous SINR: interference must not
	// poison the channel estimate — it shows up through the loss
	// statistics instead, as the paper infers from the rate behaviour
	// under interference (§4.4).
	d.snrEst.Update(d.rssiSNR(rx))
	d.powerEst.Update(rx.PowerDBm)
	if d.refPending {
		d.trainedPowerDBm = d.powerEst.Value()
		d.refPending = false
	}
	d.adaptRate()
	d.maybeRealign()
	// The station answers the dock's beacon (the paper sees a beacon
	// exchange); the SIFS-spaced response needs no deferral — the beacon
	// it answers just reserved the air.
	if d.cfg.Role == Station && !d.inTXOP {
		d.sched.After(phy.SIFS, d.beaconReplyFn)
	}
}

// sendBeaconReply answers the dock's beacon (pre-bound as beaconReplyFn).
func (d *Device) sendBeaconReply() {
	if d.state == StateAssociated && !d.inTXOP && d.sched.Now() >= d.txBusyUntil {
		d.transmit(phy.Frame{Type: phy.FrameBeacon, Src: d.radio.ID, Dst: d.peer.radio.ID})
	}
}

// rssiSNR converts a reception's signal strength into the SNR the
// device's channel estimator reports (EVM-capped, interference-blind).
func (d *Device) rssiSNR(rx sim.Reception) float64 {
	return d.med.EffectiveSNRdB(rx.PowerDBm)
}

// adaptRate maps the smoothed SNR onto the MCS ladder; below the MinData
// floor the link is considered broken rather than slowed (§4.1). The
// effective margin grows with the recent loss rate — the paper infers
// the D5000 adjusts its rate "according to SINR measurements and packet
// loss statistics", which is what produces the inverse rate/utilization
// correlation of Fig. 22 under interference.
func (d *Device) adaptRate() {
	margin := RateMarginDB + 8*d.lossEst.Value()
	m, ok := phy.SelectMCS(d.snrEst.Value(), margin)
	if !ok || m < MinDataMCS {
		// Loss-induced downshift does not mean the station is out of
		// range; only a genuinely weak clean-air SNR breaks the link.
		cleanOK := false
		if mc, ok2 := phy.SelectMCS(d.snrEst.Value(), RateMarginDB); ok2 && mc >= MinDataMCS {
			cleanOK = true
		}
		if cleanOK {
			d.lowSNRBeacons = 0
			d.mcs = MinDataMCS
			return
		}
		d.lowSNRBeacons++
		if d.lowSNRBeacons >= LowSNRBeaconLimit {
			d.breakReason = "lowSNR"
			d.linkBreak()
		}
		d.mcs = MinDataMCS
		return
	}
	d.lowSNRBeacons = 0
	d.mcs = m
}

// maybeRealign re-trains the transmit sector when the beacon power has
// sagged well below the trained level. Rate and beam adaptation being
// one process is exactly what the paper concludes from Fig. 14.
func (d *Device) maybeRealign() {
	if !d.powerEst.Initialized() || d.refPending || d.trainedPowerDBm == 0 {
		return
	}
	if d.powerEst.Value() >= d.trainedPowerDBm-RealignDropDB {
		return
	}
	d.setSector(d.trainSector())
	d.resetPowerReference()
	d.Stats.Realignments++
}

// --- Channel access (CSMA/CA) ------------------------------------------

func (d *Device) startAccess() {
	if d.accessing || d.inTXOP || d.state != StateAssociated ||
		(d.txq.Len() == 0 && d.pending == nil) {
		return
	}
	d.accessing = true
	d.backoff = d.rng.Intn(d.cw)
	d.deferredCS = false
	d.accessTimer = d.sched.After(DIFS, d.accessSlotFn)
}

func (d *Device) accessSlot() {
	if d.state != StateAssociated || !d.accessing {
		return
	}
	if d.med.Busy(d.radio, CSThresholdDBm) || d.sched.Now() < d.txBusyUntil ||
		d.sched.Now() < d.navUntil {
		// Freeze: count one deferral per busy encounter (Fig. 21b).
		if !d.deferredCS {
			d.Stats.CSDefers++
			d.deferredCS = true
		}
		d.accessTimer = d.sched.After(phy.SlotTime, d.accessSlotFn)
		return
	}
	d.deferredCS = false
	if d.backoff > 0 {
		d.backoff--
		d.accessTimer = d.sched.After(phy.SlotTime, d.accessSlotFn)
		return
	}
	d.accessing = false
	d.beginTXOP()
}

func (d *Device) beginTXOP() {
	d.inTXOP = true
	d.txopEnd = d.sched.Now() + MaxTXOP
	d.awaitingCTS = true
	// The RTS reserves the medium for the CTS plus the first data/ACK
	// cycle; the CTS re-announces the remainder. Later frames of the
	// TXOP carry their own ACK-wait reservation.
	cycle := phy.Frame{Type: phy.FrameCTS}.Duration() + d.mcs.FrameDuration(d.mcs.MaxAggBytes(MaxAggAir)) +
		phy.AckDuration + 4*phy.SIFS
	d.transmit(phy.Frame{Type: phy.FrameRTS, Src: d.radio.ID, Dst: d.peer.radio.ID, NAV: cycle})
	rtsDur := phy.Frame{Type: phy.FrameRTS}.Duration()
	ctsDur := phy.Frame{Type: phy.FrameCTS}.Duration()
	timeout := rtsDur + phy.SIFS + ctsDur + 10*time.Microsecond
	d.ctsTimer = d.sched.After(timeout, d.ctsTimeoutFn)
}

// onCTSTimeout abandons a TXOP whose RTS went unanswered (pre-bound as
// ctsTimeoutFn).
func (d *Device) onCTSTimeout() {
	if !d.awaitingCTS {
		return
	}
	d.awaitingCTS = false
	d.inTXOP = false
	d.bumpCW()
	d.Stats.AckTimeouts++
	d.startAccess()
}

func (d *Device) onCTS(rx sim.Reception) {
	if !d.awaitingCTS || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	d.awaitingCTS = false
	d.ctsTimer.Cancel()
	d.sched.After(phy.SIFS, d.sendDataFrameFn)
}

func (d *Device) onRTS(rx sim.Reception) {
	if d.state != StateAssociated || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	d.sched.After(phy.SIFS, d.ctsReplyFn)
}

// sendCTSReply answers a decoded RTS after SIFS (pre-bound as
// ctsReplyFn).
func (d *Device) sendCTSReply() {
	if d.state == StateAssociated {
		cycle := d.mcs.FrameDuration(d.mcs.MaxAggBytes(MaxAggAir)) + phy.AckDuration + 3*phy.SIFS
		d.transmit(phy.Frame{Type: phy.FrameCTS, Src: d.radio.ID, Dst: d.peer.radio.ID, NAV: cycle})
	}
}

// sendDataFrame aggregates the head of the queue into one PPDU bounded
// by MaxAggAir at the current MCS — the paper's load-driven aggregation:
// a shallow queue yields single-MPDU ≈5 µs frames, a deep queue yields
// 15–25 µs aggregates (Figs. 9/10).
func (d *Device) sendDataFrame() {
	if d.state != StateAssociated || !d.inTXOP {
		return
	}
	// A pending aggregate from a failed TXOP is retransmitted first.
	if d.pending != nil {
		d.transmitPending(true)
		return
	}
	if d.txq.Len() == 0 {
		d.endTXOP()
		return
	}
	aggAir := d.maxAggAir
	if aggAir <= 0 {
		aggAir = MaxAggAir
	}
	maxBytes := d.mcs.MaxAggBytes(aggAir)
	mpdus := d.txq.PeekAir(maxBytes)
	if len(mpdus) == 0 {
		d.endTXOP()
		return
	}
	total := 0
	for _, m := range mpdus {
		total += m.Bytes
	}
	d.seq++
	d.pending = d.newAggregate(mpdus)
	d.pendingFrame = phy.Frame{
		Type:         phy.FrameData,
		Src:          d.radio.ID,
		Dst:          d.peer.radio.ID,
		MCS:          d.mcs,
		PayloadBytes: total,
		MPDUs:        len(mpdus),
		Seq:          d.seq,
		NAV:          phy.AckDuration + 2*phy.SIFS,
		Payload:      d.pending,
	}
	d.transmitPending(false)
}

func (d *Device) transmitPending(retry bool) {
	f := d.pendingFrame
	f.Retry = retry
	dur := f.Duration()
	// Respect the TXOP boundary.
	if d.sched.Now()+dur+phy.SIFS+phy.AckDuration > d.txopEnd {
		d.endTXOP()
		d.startAccess()
		return
	}
	if audit.On() {
		// The guard above must keep every burst inside the 2 ms TXOP;
		// reaching here with the frame end past the boundary means the
		// bookkeeping (txopEnd, frame duration) disagrees with the spec.
		if end := d.sched.Now() + dur; end > d.txopEnd {
			audit.Reportf(audit.RuleWiGigTXOPOverrun, d.sched.Now(),
				"%s data frame (seq %d, %v air) ends %v past the TXOP boundary %v",
				d.cfg.Name, f.Seq, dur, end-d.txopEnd, d.txopEnd)
		}
		if retry && d.retries > RetryLimit {
			audit.Reportf(audit.RuleWiGigRetryBound, d.sched.Now(),
				"%s retransmitting seq %d on attempt %d, beyond the %d-retry budget",
				d.cfg.Name, f.Seq, d.retries, RetryLimit)
		}
	}
	d.transmit(f)
	d.Stats.FramesSent++
	if retry {
		d.Stats.Retries++
	}
	d.Stats.TxAirTime += dur
	timeout := dur + phy.SIFS + phy.AckDuration + 10*time.Microsecond
	d.ackTimer = d.sched.After(timeout, d.onAckTimeoutFn)
}

func (d *Device) onAckTimeout() {
	if d.state != StateAssociated || d.pending == nil {
		return
	}
	d.Stats.AckTimeouts++
	d.consecFails++
	d.lossEst.Update(1)
	if audit.On() && d.consecFails > ConsecFailLimit {
		audit.Reportf(audit.RuleWiGigRetryBound, d.sched.Now(),
			"%s consecutive-failure counter %d past the teardown threshold %d",
			d.cfg.Name, d.consecFails, ConsecFailLimit)
	}
	if d.consecFails >= ConsecFailLimit {
		d.breakReason = "dataFails"
		d.linkBreak()
		return
	}
	d.retries++
	if d.retries > RetryLimit {
		// Drop the aggregate and move on.
		d.txq.Pop(len(d.pending.mpdus))
		d.releasePending()
		d.retries = 0
		d.bumpCW()
		d.endTXOP()
		d.startAccess()
		return
	}
	// Retransmissions re-contend for the channel: carrier sensing and a
	// widened backoff keep the retries from blindly landing inside the
	// same interference burst (the paper's Fig. 21a shows spaced
	// retransmissions).
	d.bumpCW()
	d.endTXOP()
	d.startAccess()
}

func (d *Device) onAck(f phy.Frame, rx sim.Reception) {
	if d.pending == nil || rx.From != d.peer.radio.ID || !rx.OK || f.Seq != d.pendingFrame.Seq {
		return
	}
	d.ackTimer.Cancel()
	d.snrEst.Update(d.rssiSNR(rx))
	d.lossEst.Update(0)
	d.lastHeard = d.sched.Now()
	d.txq.Pop(len(d.pending.mpdus))
	d.releasePending()
	d.retries = 0
	d.consecFails = 0
	d.cw = CWMin
	if d.txq.Len() > 0 && d.inTXOP {
		d.sched.After(phy.SIFS, d.sendDataFrameFn)
		return
	}
	d.endTXOP()
	if d.txq.Len() > 0 {
		d.startAccess()
	}
}

func (d *Device) onData(f phy.Frame, rx sim.Reception) {
	if d.state != StateAssociated || rx.From != d.peer.radio.ID {
		return
	}
	if !rx.OK {
		return // corrupted: no ACK, the sender times out (Fig. 21a)
	}
	d.lastHeard = d.sched.Now()
	d.snrEst.Update(d.rssiSNR(rx))
	d.powerEst.Update(rx.PowerDBm)
	if f.Seq != d.lastRxSeq {
		d.lastRxSeq = f.Seq
		if agg, ok := f.Payload.(*aggregate); ok {
			for _, m := range agg.mpdus {
				d.Stats.MPDUsDelivered++
				d.Stats.BytesDelivered += int64(m.Bytes)
				m.Deliver()
			}
		}
	}
	// Block-ACK after SIFS (duplicates are re-ACKed). Data frames are
	// serialized per link, so stashing the sequence in ackSeq (rather
	// than capturing it in a closure) is safe: the next data frame
	// cannot arrive before this ACK's SIFS elapses.
	d.ackSeq = f.Seq
	d.sched.After(phy.SIFS, d.sendAckFn)
}

// sendAck emits the pending block-ACK for ackSeq (pre-bound as
// sendAckFn).
func (d *Device) sendAck() {
	if d.state == StateAssociated {
		d.transmit(phy.Frame{Type: phy.FrameAck, Src: d.radio.ID, Dst: d.peer.radio.ID, Seq: d.ackSeq})
	}
}

func (d *Device) endTXOP() {
	d.inTXOP = false
}

func (d *Device) bumpCW() {
	d.cw *= 2
	if d.cw > CWMax {
		d.cw = CWMax
	}
}

// setNAV installs a new virtual-carrier-sense expiry. Callers must only
// ever extend a live hold (the onFrame guard); the auditor flags any
// update that shortens a reservation still in progress — the
// overheard-frame bug class that would let the device transmit into a
// protected exchange.
func (d *Device) setNAV(until sim.Time) {
	if audit.On() {
		if now := d.sched.Now(); until < d.navUntil && now < d.navUntil {
			audit.Reportf(audit.RuleWiGigNAVDecrease, now,
				"%s NAV shortened from %v to %v with %v left on the hold",
				d.cfg.Name, d.navUntil, until, d.navUntil-now)
		}
	}
	d.navUntil = until
}

// onFrame dispatches medium deliveries.
func (d *Device) onFrame(f phy.Frame, rx sim.Reception) {
	// Virtual carrier sensing: any decoded reservation addressed to
	// someone else sets the NAV — this is what protects exchanges from
	// hidden terminals the energy detector cannot hear.
	if rx.OK && f.NAV > 0 && f.Dst != d.radio.ID && f.Src != d.radio.ID {
		if until := rx.End + f.NAV; until > d.navUntil {
			d.setNAV(until)
		}
	}
	switch f.Type {
	case phy.FrameDiscovery:
		d.onDiscoveryHeard(rx)
	case phy.FrameAssocReq:
		d.onAssocReq(rx)
	case phy.FrameAssocResp:
		d.onAssocResp(rx)
	case phy.FrameBeacon:
		d.onBeacon(rx)
	case phy.FrameRTS:
		if f.Dst == d.radio.ID {
			d.onRTS(rx)
		}
	case phy.FrameCTS:
		if f.Dst == d.radio.ID {
			d.onCTS(rx)
		}
	case phy.FrameData:
		if f.Dst == d.radio.ID {
			d.onData(f, rx)
		}
	case phy.FrameAck:
		if f.Dst == d.radio.ID {
			d.onAck(f, rx)
		}
	}
}

// String renders a debug summary.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s, %s, %s, q=%d, snr=%.1f)",
		d.cfg.Name, d.cfg.Role, d.state, d.mcs, d.txq.Len(), d.snrEst.Value())
}

// Link wires a dock/station pair on a medium and exposes the pair.
type Link struct {
	Dock, Station *Device
}

// NewLink builds a dock at dockPos and a station at staPos facing each
// other (unless boresights are overridden in the configs), connects and
// starts them.
func NewLink(med *sim.Medium, dock, station Config) *Link {
	dock.Role = Dock
	station.Role = Station
	if dock.Name == "" {
		dock.Name = "dock"
	}
	if station.Name == "" {
		station.Name = "station"
	}
	// Default orientation: face the peer.
	if dock.BoresightDeg == 0 && station.BoresightDeg == 0 {
		dock.BoresightDeg = geom.Deg(station.Pos.Sub(dock.Pos).Angle())
		station.BoresightDeg = geom.Deg(dock.Pos.Sub(station.Pos).Angle())
	}
	dk := NewDevice(med, dock)
	st := NewDevice(med, station)
	Connect(dk, st)
	dk.Start()
	st.Start()
	return &Link{Dock: dk, Station: st}
}

// WaitAssociated runs the scheduler until both ends associate or the
// deadline passes; it reports success.
func (l *Link) WaitAssociated(sched *sim.Scheduler, deadline sim.Time) bool {
	step := 10 * time.Millisecond
	for sched.Now() < deadline {
		if l.Dock.Associated() && l.Station.Associated() {
			return true
		}
		sched.Run(sched.Now() + step)
	}
	return l.Dock.Associated() && l.Station.Associated()
}

// DebugBreaks installs a hook observing link breaks (tests only).
func DebugBreaks(fn func(who, reason string)) { debugBreak = fn }
