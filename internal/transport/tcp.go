// Package transport implements the window-based TCP model and the
// iperf-like traffic tools the paper's measurements run over. The paper
// controls WiGig's offered load by adjusting the TCP window size in
// Iperf (§4.1, Footnote 3) and measures file-transfer times and
// throughput time series (Figs. 9–11, 13, 22, 23); this package provides
// those knobs: a Reno-style congestion-controlled flow, a configurable
// receive window, an application pacing cap (the dock's Gigabit Ethernet
// back-haul), and goodput sampling.
package transport

import (
	"math"
	"time"

	"repro/internal/audit"
	"repro/internal/mac"
	"repro/internal/sim"
)

// LinkSender is the MAC service interface a flow direction runs over;
// both wigig.Device and test fakes implement it.
type LinkSender interface {
	// Send enqueues one MPDU; false means queue full or link down.
	Send(m mac.MPDU) bool
}

// Standard segment sizing: Ethernet-framed TCP.
const (
	// MSS is the TCP payload per segment.
	MSS = 1448
	// SegmentWire is the on-air MPDU size of a full segment (MSS +
	// TCP/IP/MAC framing).
	SegmentWire = 1500
	// AckWire is the on-air size of a pure ACK.
	AckWire = 60
	// MinRTO floors the retransmission timeout.
	MinRTO = 20 * time.Millisecond
	// DefaultWindow is the receive window when none is configured
	// (the paper's Fig. 23 run uses a 250 KByte window).
	DefaultWindow = 256 << 10
	// EthernetGoodputBps is the TCP goodput of the dock's Gigabit
	// Ethernet feed: the paper's setups cap end-to-end iperf at ≈940
	// Mbps. Flows fed by the dock use it as PacingBps.
	EthernetGoodputBps = 940e6
)

// Config parameterizes a Flow.
type Config struct {
	// Window is the receive window in bytes (iperf -w). 0 uses
	// DefaultWindow. Tiny windows (~1 KB) reproduce the paper's
	// kilobit-per-second low-load scenarios.
	Window int
	// PacingBps caps the application data arrival rate at the sender —
	// the dock's Gigabit Ethernet feed (≈940 Mbps of TCP goodput) in the
	// paper's setups. 0 means unlimited (backlogged sender).
	PacingBps float64
	// CoalesceUs models NIC interrupt coalescing on the paced feed:
	// packets become available in batches of PacingBps×CoalesceUs worth
	// of bytes (at least one segment). Batched arrivals are what let the
	// WiGig MAC build queue depth — and thus aggregation — even when the
	// average feed rate is below the air rate. 0 uses the 60 µs default
	// typical of GbE NICs; negative disables coalescing.
	CoalesceUs float64
	// TotalBytes ends the flow after transferring this much (file
	// transfer mode). 0 streams forever (iperf mode).
	TotalBytes int64
}

// Flow is one unidirectional TCP connection: data over fwd, ACKs over
// rev. Both links' MACs see realistic MPDU streams: forward data
// segments and reverse cumulative ACKs.
type Flow struct {
	sched *sim.Scheduler
	fwd   LinkSender
	rev   LinkSender
	cfg   Config

	// Sender state, in segment units.
	nextSeq   int64 // next segment to send (beyond highest sent)
	maxSent   int64 // high-water mark: one past the highest segment ever sent
	ackedSeq  int64 // cumulative: all segments < ackedSeq delivered
	dupAcks   int
	cwnd      float64 // in segments
	ssthresh  float64
	inFast    bool
	rtoTimer  sim.Timer
	paceTimer sim.Timer
	srtt      float64 // seconds
	rttvar    float64
	rttSeq    int64    // segment whose send time we are timing
	rttSentAt sim.Time // when it was sent
	started   sim.Time
	startedIs bool
	done      bool

	// Pacing token bucket (Ethernet feed model).
	paceTokens float64
	paceLast   sim.Time

	// Pre-bound scheduler callbacks (RTO and pace wakeups fire once per
	// timeout/batch; binding the method values once keeps the per-ACK
	// armRTO cycle allocation-free).
	onRTOFn func()
	pumpFn  func()
	// Pre-bound MPDU delivery callbacks: every data segment and ACK
	// carries one of these with its sequence or ACK number as the
	// MPDU's Arg, so sending allocates no per-segment closure.
	onSegmentArriveFn func(seq int64)
	onAckFn           func(ackNo int64)

	// Receiver state.
	rcvNext int64
	ooo     map[int64]bool

	// Delivered counts in-order bytes handed to the receiving app.
	Delivered int64
	// Retransmits counts TCP-level retransmissions.
	Retransmits int
	// Timeouts counts RTO firings.
	Timeouts int
	// OnComplete fires when TotalBytes have been delivered.
	OnComplete func()
}

// NewFlow creates a flow from a sender-side link and a receiver-side
// (reverse) link.
func NewFlow(sched *sim.Scheduler, fwd, rev LinkSender, cfg Config) *Flow {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	f := &Flow{
		sched:    sched,
		fwd:      fwd,
		rev:      rev,
		cfg:      cfg,
		cwnd:     2,
		ssthresh: math.Inf(1),
		ooo:      make(map[int64]bool),
		rttSeq:   -1,
	}
	f.onRTOFn = f.onRTO
	f.pumpFn = f.pump
	f.onSegmentArriveFn = f.onSegmentArrive
	f.onAckFn = f.onAck
	return f
}

// Start begins transmission.
func (f *Flow) Start() {
	f.started = f.sched.Now()
	f.paceLast = f.started
	f.startedIs = true
	f.pump()
}

// Stop freezes the flow (no further sends; in-flight traffic drains).
func (f *Flow) Stop() {
	f.done = true
	f.rtoTimer.Cancel()
}

// Done reports completion (file mode only).
func (f *Flow) Done() bool { return f.done }

// GoodputBps returns average delivered rate since Start.
func (f *Flow) GoodputBps() float64 {
	if !f.startedIs {
		return 0
	}
	el := (f.sched.Now() - f.started).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(f.Delivered) * 8 / el
}

// windowSegments is the effective window: min(cwnd, rwnd).
func (f *Flow) windowSegments() int64 {
	w := int64(f.cwnd)
	rw := int64(f.cfg.Window / MSS)
	if rw < 1 {
		rw = 1
	}
	if w < 1 {
		w = 1
	}
	if w > rw {
		w = rw
	}
	return w
}

// batchBytes is the interrupt-coalescing release granularity of the
// paced feed.
func (f *Flow) batchBytes() float64 {
	coalesce := f.cfg.CoalesceUs
	if coalesce == 0 {
		coalesce = 60
	}
	if coalesce < 0 {
		return MSS
	}
	b := f.cfg.PacingBps * coalesce * 1e-6 / 8
	if b < MSS {
		b = MSS
	}
	return b
}

// available reports how many segments the application has made available
// for sending by now. The Ethernet feed is a token bucket: tokens refill
// at line rate and are capped at one socket buffer, so a flow stalled by
// interference cannot later "catch up" above the feed rate; interrupt
// coalescing releases the tokens in batches.
func (f *Flow) available() int64 {
	var avail int64 = math.MaxInt64 / 2
	if f.cfg.PacingBps > 0 && f.startedIs {
		now := f.sched.Now()
		dt := (now - f.paceLast).Seconds()
		if dt > 0 {
			f.paceTokens += f.cfg.PacingBps * dt / 8
		}
		f.paceLast = now
		burst := math.Max(f.batchBytes(), 64<<10)
		if f.paceTokens > burst {
			f.paceTokens = burst
		}
		batch := f.batchBytes()
		released := math.Floor(f.paceTokens/batch) * batch
		avail = f.nextSeq + int64(released/MSS)
	}
	if f.cfg.TotalBytes > 0 {
		total := (f.cfg.TotalBytes + MSS - 1) / MSS
		if total < avail {
			avail = total
		}
	}
	return avail
}

// pump sends as many segments as window and availability allow.
func (f *Flow) pump() {
	if f.done {
		return
	}
	win := f.windowSegments()
	avail := f.available()
	sentAny := false
	sendFailed := false
	for f.nextSeq-f.ackedSeq < win && f.nextSeq < avail {
		if !f.sendSegment(f.nextSeq, false) {
			// MAC queue full or link down. Retry on a coarse timer —
			// hammering Send at segment pace while an association is
			// re-forming would flood the event queue.
			sendFailed = true
			break
		}
		f.nextSeq++
		sentAny = true
	}
	if f.cfg.PacingBps > 0 && (sendFailed || (f.nextSeq >= avail && f.nextSeq-f.ackedSeq < win)) {
		// Paced source waiting for data (or for the MAC to recover): a
		// single outstanding wakeup suffices — rescheduling on every ACK
		// would flood the event queue. A fired wakeup deactivates its
		// handle automatically, so Active gates exactly one in flight.
		if !f.paceTimer.Active() {
			delay := time.Duration(float64(MSS*8) / f.cfg.PacingBps * float64(time.Second))
			if sendFailed {
				delay = time.Millisecond
			}
			f.paceTimer = f.sched.After(delay, f.pumpFn)
		}
	}
	if sentAny {
		f.armRTO()
	}
}

// sendSegment transmits one segment (by index) as an MPDU over the
// forward link.
func (f *Flow) sendSegment(seq int64, retx bool) bool {
	ok := f.fwd.Send(mac.MPDU{
		Bytes:     SegmentWire,
		OnDeliver: f.onSegmentArriveFn,
		Arg:       seq,
	})
	if !ok {
		return false
	}
	if seq >= f.maxSent {
		f.maxSent = seq + 1
	}
	if retx {
		f.Retransmits++
	} else {
		// New data consumes feed tokens (retransmissions come from the
		// sender's buffer, not the wire).
		if f.cfg.PacingBps > 0 {
			f.paceTokens -= MSS
			if f.paceTokens < 0 {
				f.paceTokens = 0
			}
		}
		if f.rttSeq < 0 || seq > f.rttSeq {
			// Time this segment for RTT estimation (only new data).
			f.rttSeq = seq
			f.rttSentAt = f.sched.Now()
		}
	}
	return true
}

// onSegmentArrive runs at the receiver when a segment is delivered by
// the MAC.
func (f *Flow) onSegmentArrive(seq int64) {
	if seq == f.rcvNext {
		f.rcvNext++
		f.Delivered += MSS
		for f.ooo[f.rcvNext] {
			delete(f.ooo, f.rcvNext)
			f.rcvNext++
			f.Delivered += MSS
		}
	} else if seq > f.rcvNext {
		f.ooo[seq] = true
	}
	// Cumulative ACK back to the sender.
	f.rev.Send(mac.MPDU{
		Bytes:     AckWire,
		OnDeliver: f.onAckFn,
		Arg:       f.rcvNext,
	})
	if f.cfg.TotalBytes > 0 && f.Delivered >= f.cfg.TotalBytes && !f.done {
		f.done = true
		f.rtoTimer.Cancel()
		if f.OnComplete != nil {
			f.OnComplete()
		}
	}
}

// auditState checks the sender's sequence and window invariants after a
// congestion-control transition: the cumulative ACK point never passes
// the highest segment ever sent (nextSeq itself may lawfully sit below
// it after a go-back-N rollback), the window stays at least one segment
// and finite, and ssthresh never collapses below its two-segment floor.
func (f *Flow) auditState(where string) {
	now := f.sched.Now()
	if f.ackedSeq > f.maxSent {
		audit.Reportf(audit.RuleTCPSeqOrder, now,
			"%s: cumulative ACK %d beyond the %d segments ever sent", where, f.ackedSeq, f.maxSent)
	}
	if math.IsNaN(f.cwnd) || math.IsInf(f.cwnd, 0) || f.cwnd < 1 {
		audit.Reportf(audit.RuleTCPCwndRange, now, "%s: cwnd=%v segments", where, f.cwnd)
	}
	if math.IsNaN(f.ssthresh) || f.ssthresh < 2 {
		audit.Reportf(audit.RuleTCPCwndRange, now, "%s: ssthresh=%v segments", where, f.ssthresh)
	}
}

// onAck runs at the sender when a cumulative ACK arrives.
func (f *Flow) onAck(ackNo int64) {
	if f.done {
		return
	}
	if audit.On() {
		if ackNo > f.maxSent {
			audit.Reportf(audit.RuleTCPSeqOrder, f.sched.Now(),
				"ACK %d acknowledges data never sent (%d segments ever sent)", ackNo, f.maxSent)
		}
		defer f.auditState("onAck")
	}
	if ackNo > f.ackedSeq {
		newly := ackNo - f.ackedSeq
		f.ackedSeq = ackNo
		f.dupAcks = 0
		// RTT sample when our timed segment is covered.
		if f.rttSeq >= 0 && ackNo > f.rttSeq {
			f.sampleRTT((f.sched.Now() - f.rttSentAt).Seconds())
			f.rttSeq = -1
		}
		if f.inFast {
			// Exit fast recovery on a new ACK.
			f.inFast = false
			f.cwnd = f.ssthresh
		} else if f.cwnd < f.ssthresh {
			f.cwnd += float64(newly) // slow start
		} else {
			f.cwnd += float64(newly) / f.cwnd // congestion avoidance
		}
		f.armRTO()
		f.pump()
		return
	}
	// Duplicate ACK.
	f.dupAcks++
	if f.dupAcks == 3 && !f.inFast {
		// Fast retransmit.
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh + 3
		f.inFast = true
		f.sendSegment(f.ackedSeq, true)
		f.armRTO()
	} else if f.inFast {
		f.cwnd++ // inflate during recovery
		f.pump()
	}
}

func (f *Flow) sampleRTT(rtt float64) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
		return
	}
	f.rttvar = 0.75*f.rttvar + 0.25*math.Abs(f.srtt-rtt)
	f.srtt = 0.875*f.srtt + 0.125*rtt
}

// rto returns the current retransmission timeout.
func (f *Flow) rto() time.Duration {
	if f.srtt == 0 {
		return 3 * MinRTO
	}
	d := time.Duration((f.srtt + 4*f.rttvar) * float64(time.Second))
	if d < MinRTO {
		d = MinRTO
	}
	return d
}

func (f *Flow) armRTO() {
	f.rtoTimer.Cancel()
	if f.nextSeq == f.ackedSeq {
		return // nothing in flight
	}
	f.rtoTimer = f.sched.After(f.rto(), f.onRTOFn)
}

func (f *Flow) onRTO() {
	if f.done || f.nextSeq == f.ackedSeq {
		return
	}
	f.Timeouts++
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 2
	f.inFast = false
	f.dupAcks = 0
	// Go-back-N from the last cumulative ACK.
	f.nextSeq = f.ackedSeq
	f.rttSeq = -1
	if audit.On() {
		f.auditState("onRTO")
	}
	f.pump()
	f.armRTO()
}
