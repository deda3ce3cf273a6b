// Package wihd models the DVDO Air-3c WirelessHD link: a one-way HDMI
// video transport with dense receiver beacons, variable-length blind data
// bursts, and — critically for the paper's interference findings — no
// carrier sensing whatsoever. The Air-3c "blindly transmits data causing
// collisions and retransmissions at the D5000 systems" (§3.2); this
// package is the interferer in the Figs. 21–23 reproductions.
package wihd

import (
	"time"

	"repro/internal/antenna"
	"repro/internal/audit"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Protocol timing constants from the paper's Table 1 and §4.1.
const (
	// DiscoveryInterval is the unpaired device discovery period (20 ms).
	DiscoveryInterval = 20 * time.Millisecond
	// BeaconInterval is the receiver's beacon period when paired
	// (0.224 ms — much denser than the D5000's).
	BeaconInterval = 224 * time.Microsecond
	// MaxFrameAir caps one video data burst's air-time; the paper sees
	// "data frames of variable length" (Fig. 15).
	MaxFrameAir = 180 * time.Microsecond
	// DefaultDataMCS is the HRP-like modulation a short, clean link
	// settles on; the transmitter picks the strongest MCS the trained
	// link supports with margin (see pickDataMCS), so longer links
	// degrade gracefully — the paper streams video beyond 20 m.
	DefaultDataMCS = phy.MCS8
	// dataMCSMarginDB backs the video MCS choice off the probed SNR.
	dataMCSMarginDB = 3.0
	// DefaultVideoRateBps is the HD stream bitrate. It is calibrated so
	// a lone WiHD link occupies ≈46% of the air, the paper's measured
	// stand-alone link utilization (§4.4).
	DefaultVideoRateBps = 1.0e9
	// videoChunkBytes is the granularity at which the video source
	// enqueues data.
	videoChunkBytes = 4096
	// maxQueueBytes bounds the video buffer.
	maxQueueBytes = 4 << 20
)

// Role distinguishes the HDMI transmitter from the receiver.
type Role int

// The two ends of a WiHD link.
const (
	TX Role = iota
	RX
)

// String names the role for logs and reports.
func (r Role) String() string {
	if r == TX {
		return "wihd-tx"
	}
	return "wihd-rx"
}

// Config describes one WiHD module.
type Config struct {
	// Name labels the radio in traces.
	Name string
	// Role selects transmitter or receiver behaviour.
	Role Role
	// Pos is the module position in meters.
	Pos geom.Vec2
	// BoresightDeg is the array mounting orientation.
	BoresightDeg float64
	// FreqHz defaults to 60.48 GHz (both DUTs share the channel in the
	// interference experiments).
	FreqHz float64
	// Seed drives the irregular array jitter and discovery shuffling.
	Seed uint64
	// VideoRateBps overrides DefaultVideoRateBps when > 0 (TX only).
	VideoRateBps float64
	// TxPowerDBm overrides the default conducted power when non-zero.
	// The transmitter defaults to +5 dBm: the Air-3c outranges the
	// D5000 (video beyond 20 m, §3.1) despite wider beams, which needs
	// the extra EIRP.
	TxPowerDBm float64
	// CarrierSense enables energy-detect deferral before video frames.
	// The real Air-3c does NOT sense (§3.2) — this knob exists for the
	// paper's §5 "multiple MAC behaviours" design principle and the
	// carrier-sense ablation bench, which quantify how much of the
	// cross-system damage a sensing WiHD would avoid.
	CarrierSense bool
	// CSThresholdDBm is the deferral threshold when CarrierSense is on
	// (defaults to -60 dBm).
	CSThresholdDBm float64
	// MaxFrameAir overrides the video burst air-time cap when > 0 —
	// paired with CarrierSense it makes the coexistence-friendly MAC
	// variant of the §5 ablation (short sensed bursts can actually fit
	// into the gaps that sensing finds).
	MaxFrameAir time.Duration
	// Channel selects the 60 GHz channel (0 = 60.48 GHz, 1 = 62.64 GHz).
	Channel int
}

// Device is one WiHD module.
type Device struct {
	cfg   Config
	med   *sim.Medium
	sched *sim.Scheduler
	radio *sim.Radio
	cb    *antenna.Codebook
	rng   *stats.RNG
	peer  *Device

	paired     bool
	powered    bool
	streaming  bool
	sector     int
	queueBytes int
	videoRate  float64
	dataMCS    phy.MCS
	lastSource sim.Time
	qoListen   int
	// lastBeaconTick anchors the beacon-cadence audit; zero means no
	// reference (fresh pairing or a power cycle).
	lastBeaconTick sim.Time

	// oriented pre-orients every codeword at the fixed mounting
	// boresight so beam switches (including the shuffled discovery
	// sweep) allocate nothing.
	oriented *mac.OrientedCodebook
	// Pre-bound scheduler callbacks for the periodic loops (the dense
	// 224 µs beacon/video ticks dominate the WiHD event rate).
	beaconTickFn   func()
	videoTickFn    func()
	rotateListenFn func()
	discoveryFn    func()
	burstNextFn    func()
	// burst is the reusable video-burst buffer videoTick drains from;
	// burstIdx walks it and burstDur is the air time of the frame
	// currently starting (bursts are strictly serialized, so one set of
	// fields suffices).
	burst    []phy.Frame
	burstIdx int
	burstDur time.Duration
	// csFree holds the idle carrier-sense wait records (CarrierSense
	// variant only).
	csFree *csWait

	// Stats mirrors the WiGig counters where meaningful.
	Stats mac.Stats
	// FramesHeard counts data frames the receiver saw (decoded or not).
	FramesHeard int
	// FramesDecoded counts successfully decoded video frames.
	FramesDecoded int
}

// NewDevice creates a WiHD module on the medium.
func NewDevice(med *sim.Medium, cfg Config) *Device {
	if cfg.FreqHz == 0 {
		cfg.FreqHz = 60.48e9
	}
	if cfg.VideoRateBps == 0 {
		cfg.VideoRateBps = DefaultVideoRateBps
	}
	if cfg.TxPowerDBm == 0 && cfg.Role == TX {
		cfg.TxPowerDBm = 5
	}
	if cfg.CSThresholdDBm == 0 {
		cfg.CSThresholdDBm = -60
	}
	_, cb := antenna.WiHDCodebook(cfg.FreqHz, cfg.Seed|1)
	d := &Device{
		cfg:       cfg,
		med:       med,
		sched:     med.Sched,
		cb:        cb,
		rng:       stats.NewRNG(cfg.Seed ^ 0xA13C),
		videoRate: cfg.VideoRateBps,
		powered:   true,
		dataMCS:   DefaultDataMCS,
	}
	d.oriented = mac.OrientCodebook(cb, d.boresight())
	d.beaconTickFn = d.beaconTick
	d.videoTickFn = d.videoTick
	d.rotateListenFn = d.rotateListen
	d.discoveryFn = d.discoveryTick
	d.burstNextFn = d.sendVideoBurst
	d.radio = med.AddRadio(&sim.Radio{
		Name:       cfg.Name,
		Pos:        cfg.Pos,
		TxPowerDBm: cfg.TxPowerDBm,
		Channel:    cfg.Channel,
		Handler:    sim.HandlerFunc(d.onFrame),
	})
	d.setQuasiOmni(0)
	// Rotate the unpaired listening pattern so quasi-omni gaps cannot
	// pin discovery (see the wigig package for the same mechanism).
	d.sched.After(listenRotatePeriod, d.rotateListenFn)
	return d
}

// listenRotatePeriod paces the unpaired listening-pattern rotation.
const listenRotatePeriod = 3 * time.Millisecond

func (d *Device) rotateListen() {
	if !d.paired {
		d.qoListen = (d.qoListen + 1) % len(d.cb.QuasiOmni)
		d.setQuasiOmni(d.qoListen)
	}
	d.sched.After(listenRotatePeriod, d.rotateListenFn)
}

// Connect pairs the transmitter with its receiver.
func Connect(tx, rx *Device) {
	tx.peer = rx
	rx.peer = tx
}

// Start launches discovery on the transmitter.
func (d *Device) Start() {
	if d.cfg.Role == TX {
		d.sched.After(0, d.discoveryFn)
	}
}

// Radio exposes the underlying radio.
func (d *Device) Radio() *sim.Radio { return d.radio }

// Name returns the device's trace label.
func (d *Device) Name() string { return d.cfg.Name }

// Codebook exposes the device's beam codebook.
func (d *Device) Codebook() *antenna.Codebook { return d.cb }

// Paired reports link establishment.
func (d *Device) Paired() bool { return d.paired }

// SetStreaming starts/stops the video source (Fig. 15's transition from
// active data transmission to idle beacon-only periods).
func (d *Device) SetStreaming(on bool) {
	if d.cfg.Role != TX || d.streaming == on {
		return
	}
	d.streaming = on
	if on && d.powered {
		d.sched.After(0, d.videoTickFn)
	}
}

// PowerOff silences the device entirely (the Fig. 23 experiment powers
// the WiHD link down mid-run). PowerOn re-enables it.
func (d *Device) PowerOff() {
	d.powered = false
	if d.peer != nil {
		d.peer.powered = false
	}
}

// PowerOn re-enables the device and its peer and restarts discovery if
// needed.
func (d *Device) PowerOn() {
	d.powered = true
	if d.peer != nil {
		d.peer.powered = true
	}
	if d.cfg.Role == TX {
		if d.paired {
			if d.streaming {
				d.sched.After(0, d.videoTickFn)
			}
		} else {
			d.sched.After(0, d.discoveryFn)
		}
		if d.peer != nil && d.peer.paired {
			// Fresh cadence reference: the off-time gap is not a violation.
			d.peer.lastBeaconTick = 0
			d.peer.sched.After(0, d.peer.beaconTickFn)
		}
	}
}

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

// --- Discovery / pairing ------------------------------------------------

// discoveryTick emits a quasi-omni discovery sweep every 20 ms until
// paired. Unlike the D5000, the pattern order is shuffled per frame —
// the paper notes this makes per-pattern measurement impracticable
// (§4.2), and the trace analyzers must cope with it.
func (d *Device) discoveryTick() {
	if d.paired || !d.powered {
		return
	}
	n := len(d.cb.QuasiOmni)
	perm := d.rng.Perm(n)
	for i := 0; i < n; i++ {
		i := i
		at := d.sched.Now() + sim.Time(i)*phy.DiscoverySubElementDuration
		d.sched.At(at, func() {
			if d.paired || !d.powered {
				return
			}
			d.radio.SetTxPattern(d.oriented.QuasiOmni(perm[i]))
			d.med.Transmit(d.radio, phy.Frame{
				Type: phy.FrameDiscovery,
				Src:  d.radio.ID,
				Dst:  -1,
				Meta: perm[i],
			})
		})
	}
	d.sched.After(DiscoveryInterval, d.discoveryFn)
}

func (d *Device) onDiscoveryHeard(rx sim.Reception) {
	if d.cfg.Role != RX || d.paired || !d.powered || d.peer == nil {
		return
	}
	if rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	// Pairing handshake: one control frame each way, then both train.
	d.sched.After(100*time.Microsecond, func() {
		if d.paired || !d.powered {
			return
		}
		d.med.Transmit(d.radio, phy.Frame{Type: phy.FrameAssocReq, Src: d.radio.ID, Dst: d.peer.radio.ID})
	})
}

func (d *Device) onPairReq(rx sim.Reception) {
	if d.cfg.Role != TX || d.paired || !d.powered || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	idx, _ := mac.SelectSector(d.med, d.radio, d.peer.radio, d.oriented)
	d.setSector(idx)
	d.pickDataMCS()
	d.paired = true
	d.sched.After(phy.SIFS, func() {
		d.med.Transmit(d.radio, phy.Frame{Type: phy.FrameAssocResp, Src: d.radio.ID, Dst: d.peer.radio.ID})
	})
	if d.streaming {
		d.sched.After(BeaconInterval, d.videoTickFn)
	}
}

func (d *Device) onPairResp(rx sim.Reception) {
	if d.cfg.Role != RX || d.paired || rx.From != d.peer.radio.ID || !rx.OK {
		return
	}
	idx, _ := mac.SelectSector(d.med, d.radio, d.peer.radio, d.oriented)
	d.setSector(idx)
	d.paired = true
	// With both ends trained, the transmitter fixes its stream MCS — in
	// the real protocol this capability feedback rides the pairing
	// response.
	d.peer.pickDataMCS()
	d.sched.After(BeaconInterval, d.beaconTickFn)
}

// --- Paired operation ---------------------------------------------------

// beaconTick is the receiver's dense beacon stream (every 224 µs,
// Fig. 15) — sent blindly by the stock device. The CarrierSense ablation
// variant defers briefly when the air is busy, skipping the beacon if no
// gap appears within half a beacon period.
func (d *Device) beaconTick() {
	if !d.paired || !d.powered {
		d.lastBeaconTick = 0
		return
	}
	if audit.On() {
		// A paired, powered receiver holds its 224 µs cadence: a
		// short gap means a doubled beacon loop (e.g. a power cycle that
		// re-armed the tick while the old one was still pending), a long
		// gap means the stream silently stalled.
		period := BeaconInterval
		if gap := d.sched.Now() - d.lastBeaconTick; d.lastBeaconTick != 0 && (gap < period/2 || gap > period*3/2) {
			audit.Reportf(audit.RuleWiHDBeaconCadence, d.sched.Now(),
				"%s beacon tick gap %v outside [%v, %v]", d.cfg.Name, gap, period/2, period*3/2)
		}
	}
	d.lastBeaconTick = d.sched.Now()
	d.sendBeacon()
	d.sched.After(BeaconInterval, d.beaconTickFn)
}

func (d *Device) sendBeacon() {
	if !d.paired || !d.powered {
		return
	}
	f := phy.Frame{Type: phy.FrameBeacon, Src: d.radio.ID, Dst: d.peer.radio.ID}
	if d.cfg.CarrierSense {
		d.newCSWait(f, 0).sense()
		return
	}
	d.med.Transmit(d.radio, f)
}

// videoTick feeds the video source into the queue and drains it as
// blind, variable-length data frames.
func (d *Device) videoTick() {
	if !d.paired || !d.powered || !d.streaming {
		d.lastSource = 0
		return
	}
	// Accumulate source bytes for the elapsed wall-clock interval, so the
	// source rate holds regardless of how long the previous drain took.
	now := d.sched.Now()
	if d.lastSource == 0 || d.lastSource > now {
		d.lastSource = now - BeaconInterval
	}
	// Video is variable-bitrate: per-interval content complexity swings
	// the instantaneous source rate, which is what gives the Fig. 15
	// trace its variable-length data frames.
	d.queueBytes += int(d.videoRate * (now - d.lastSource).Seconds() / 8 * d.rng.Range(0.4, 1.6))
	d.lastSource = now
	if d.queueBytes > maxQueueBytes {
		d.queueBytes = maxQueueBytes
	}
	// Drain: one or more frames, each capped at MaxFrameAir, sent
	// sequentially with SIFS gaps (so an optional carrier-sense deferral
	// of one frame delays the rest instead of overlapping them). The
	// stock device performs no sensing and no ACKs.
	frameAir := MaxFrameAir
	if d.cfg.MaxFrameAir > 0 {
		frameAir = d.cfg.MaxFrameAir
	}
	maxBytes := d.dataMCS.MaxAggBytes(frameAir)
	d.burst = d.burst[:0]
	for d.queueBytes > 0 {
		n := d.queueBytes
		if n > maxBytes {
			n = maxBytes
		}
		d.queueBytes -= n
		d.burst = append(d.burst, phy.Frame{
			Type:         phy.FrameData,
			Src:          d.radio.ID,
			Dst:          d.peer.radio.ID,
			MCS:          d.dataMCS,
			PayloadBytes: n,
			MPDUs:        (n + videoChunkBytes - 1) / videoChunkBytes,
		})
	}
	d.burstIdx = 0
	d.sendVideoBurst()
}

// sendVideoBurst transmits the buffered burst frames one after another
// (burstIdx walks the reusable buffer), then re-arms the source tick.
func (d *Device) sendVideoBurst() {
	if d.burstIdx >= len(d.burst) || !d.paired || !d.powered || !d.streaming {
		d.sched.After(BeaconInterval, d.videoTickFn)
		return
	}
	f := d.burst[d.burstIdx]
	d.burstDur = f.Duration()
	d.sendVideoFrame(f, d.burstDur)
}

// transmitVideo puts the current burst frame on air; the next frame
// follows after this one's air time plus a SIFS.
func (d *Device) transmitVideo(f phy.Frame, dur time.Duration) {
	d.med.Transmit(d.radio, f)
	d.Stats.FramesSent++
	d.Stats.TxAirTime += dur
	d.burstIdx++
	d.sched.After(d.burstDur+phy.SIFS, d.burstNextFn)
}

// pickDataMCS probes the trained link and fixes the video MCS: the
// strongest scheme that still has dataMCSMarginDB of headroom, clamped
// to the HRP-like ceiling. WiHD then never rate-adapts mid-stream.
func (d *Device) pickDataMCS() {
	snr := d.med.EffectiveSNRdB(d.med.RxPowerDBm(d.radio, d.peer.radio))
	m, ok := phy.SelectMCS(snr, dataMCSMarginDB)
	if !ok {
		m = phy.MCS1
	}
	if m > DefaultDataMCS {
		m = DefaultDataMCS
	}
	d.dataMCS = m
}

// difsGuard is the idle period a sensing WiHD variant requires before
// transmitting: an instant of idle air inside a SIFS gap between a data
// frame and its ACK must not trigger a transmission, so the check is
// two-phase — idle now and still idle a DIFS later.
const difsGuard = phy.SIFS + 2*phy.SlotTime

// sendVideoFrame transmits one video frame, optionally deferring to a
// busy channel when the carrier-sensing ablation knob is enabled.
func (d *Device) sendVideoFrame(f phy.Frame, dur time.Duration) {
	if !d.paired || !d.powered || !d.streaming {
		return
	}
	if audit.On() {
		limit := MaxFrameAir
		if d.cfg.MaxFrameAir > 0 {
			limit = d.cfg.MaxFrameAir
		}
		if dur > limit {
			audit.Reportf(audit.RuleWiHDBurstAir, d.sched.Now(),
				"%s video frame of %d bytes occupies %v, over the %v cap", d.cfg.Name, f.PayloadBytes, dur, limit)
		}
	}
	if d.cfg.CarrierSense {
		d.newCSWait(f, dur).sense()
		return
	}
	d.transmitVideo(f, dur)
}

// Deferral budgets of the carrier-sensing variant: a beacon is skipped
// after maxBeaconDeferrals busy checks, a video frame goes on air
// regardless after maxVideoDeferrals.
const (
	maxBeaconDeferrals = 10
	maxVideoDeferrals  = 500
)

// csWait is one frame of the carrier-sensing variant waiting for idle
// air: a beacon or a video frame. Waits can overlap — a beacon's
// deferrals may outlast the 224 µs tick, and a power cycle can restart
// a burst while an old wait is pending — so each has its own record.
// Finished records return to the device's free list with their
// pre-bound callbacks, which keeps steady-state deferral allocation-
// free.
type csWait struct {
	d         *Device
	f         phy.Frame
	dur       time.Duration
	deferrals int
	retryFn   func() // pre-bound retry
	recheckFn func() // pre-bound recheck
	next      *csWait
}

// newCSWait takes a wait record for f off the free list.
func (d *Device) newCSWait(f phy.Frame, dur time.Duration) *csWait {
	w := d.csFree
	if w == nil {
		w = &csWait{d: d}
		w.retryFn = w.retry
		w.recheckFn = w.recheck
	} else {
		d.csFree = w.next
	}
	w.f, w.dur, w.deferrals, w.next = f, dur, 0, nil
	return w
}

// release returns the record to its device's free list.
func (w *csWait) release() {
	w.f = phy.Frame{}
	w.next = w.d.csFree
	w.d.csFree = w
}

// live reports whether the device still wants to send the frame.
func (w *csWait) live() bool {
	d := w.d
	if w.f.Type == phy.FrameBeacon {
		return d.paired && d.powered
	}
	return d.paired && d.powered && d.streaming
}

// sense checks the air: busy air backs off, idle air is re-checked
// after a DIFS so SIFS gaps inside an ongoing exchange do not count as
// free air.
func (w *csWait) sense() {
	if w.f.Type == phy.FrameBeacon {
		if w.deferrals >= maxBeaconDeferrals {
			w.release() // skip this beacon entirely
			return
		}
	} else if w.deferrals >= maxVideoDeferrals {
		w.transmit()
		return
	}
	d := w.d
	if d.med.Busy(d.radio, d.cfg.CSThresholdDBm) {
		w.backoff()
		return
	}
	d.sched.After(difsGuard, w.recheckFn)
}

// retry runs after a backoff (pre-bound as retryFn).
func (w *csWait) retry() {
	if !w.live() {
		w.release()
		return
	}
	w.sense()
}

// recheck runs a DIFS after an idle instant (pre-bound as recheckFn).
func (w *csWait) recheck() {
	if !w.live() {
		w.release()
		return
	}
	if w.d.med.Busy(w.d.radio, w.d.cfg.CSThresholdDBm) {
		w.backoff()
		return
	}
	w.transmit()
}

func (w *csWait) backoff() {
	w.d.Stats.CSDefers++
	w.deferrals++
	w.d.sched.After(2*phy.SlotTime, w.retryFn)
}

// transmit puts the frame on air and frees the record.
func (w *csWait) transmit() {
	d, f, dur := w.d, w.f, w.dur
	w.release()
	if f.Type == phy.FrameBeacon {
		d.med.Transmit(d.radio, f)
		return
	}
	d.transmitVideo(f, dur)
}

func (d *Device) onData(f phy.Frame, rx sim.Reception) {
	if d.cfg.Role != RX || !d.paired || rx.From != d.peer.radio.ID {
		return
	}
	d.FramesHeard++
	if rx.OK {
		d.FramesDecoded++
		d.Stats.MPDUsDelivered += f.MPDUs
		d.Stats.BytesDelivered += int64(f.PayloadBytes)
	}
}

func (d *Device) onFrame(f phy.Frame, rx sim.Reception) {
	switch f.Type {
	case phy.FrameDiscovery:
		d.onDiscoveryHeard(rx)
	case phy.FrameAssocReq:
		if f.Dst == d.radio.ID {
			d.onPairReq(rx)
		}
	case phy.FrameAssocResp:
		if f.Dst == d.radio.ID {
			d.onPairResp(rx)
		}
	case phy.FrameData:
		if f.Dst == d.radio.ID {
			d.onData(f, rx)
		}
	}
}

// System wires a WiHD transmitter/receiver pair.
type System struct {
	TX, RX *Device
}

// NewSystem builds a paired TX/RX facing each other, starts discovery,
// and begins streaming immediately (an HDMI source is always pushing
// pixels).
func NewSystem(med *sim.Medium, tx, rx Config) *System {
	tx.Role = TX
	rx.Role = RX
	if tx.Name == "" {
		tx.Name = "wihd-tx"
	}
	if rx.Name == "" {
		rx.Name = "wihd-rx"
	}
	if tx.BoresightDeg == 0 && rx.BoresightDeg == 0 {
		tx.BoresightDeg = geom.Deg(rx.Pos.Sub(tx.Pos).Angle())
		rx.BoresightDeg = geom.Deg(tx.Pos.Sub(rx.Pos).Angle())
	}
	t := NewDevice(med, tx)
	r := NewDevice(med, rx)
	Connect(t, r)
	t.SetStreaming(true)
	t.Start()
	return &System{TX: t, RX: r}
}

// WaitPaired runs the scheduler until both modules pair or the deadline
// passes.
func (s *System) WaitPaired(sched *sim.Scheduler, deadline sim.Time) bool {
	step := 5 * time.Millisecond
	for sched.Now() < deadline {
		if s.TX.Paired() && s.RX.Paired() {
			return true
		}
		sched.Run(sched.Now() + step)
	}
	return s.TX.Paired() && s.RX.Paired()
}

// PowerOff shuts the whole system down (Fig. 23).
func (s *System) PowerOff() { s.TX.PowerOff() }

// PowerOn restarts it.
func (s *System) PowerOn() { s.TX.PowerOn() }
