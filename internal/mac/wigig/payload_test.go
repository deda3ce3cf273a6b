package wigig

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/transport"
)

// lifetimeRig streams MPDUs from the station to the dock over an
// associated link and records, for every data frame, a copy of its MPDU
// Args taken when the frame was built — the copy-per-frame reference —
// alongside the (frame seq, Arg) pairs the dock delivers. A pooled
// aggregate reused while a copy of its frame can still reach the dock
// shows up as a delivered run that differs from the reference.
type lifetimeRig struct {
	t      *testing.T
	s      *sim.Scheduler
	med    *sim.Medium
	tx, rx *Device

	built   map[int64][]int64
	builtAt map[int64]sim.Time
	seen    map[*aggregate]bool
	reused  int
	got     [][2]int64
	next    int64
	// around, when set, wraps every sendDataFrame call of the sender.
	around func(send func())
	// banned aggregates must never be built into a frame again.
	banned map[*aggregate]bool
}

func newLifetimeRig(t *testing.T, seed uint64) *lifetimeRig {
	t.Helper()
	s, med, l := newLink(t, 2, seed)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	r := &lifetimeRig{
		t: t, s: s, med: med, tx: l.Station, rx: l.Dock,
		built:   map[int64][]int64{},
		builtAt: map[int64]sim.Time{},
		seen:    map[*aggregate]bool{},
		banned:  map[*aggregate]bool{},
	}
	inner := r.tx.sendDataFrameFn
	r.tx.sendDataFrameFn = func() {
		send := func() { inner(); r.record() }
		if r.around != nil {
			r.around(send)
		} else {
			send()
		}
	}
	return r
}

// record notes a newly built frame's reference copy.
func (r *lifetimeRig) record() {
	p := r.tx.pending
	if p == nil {
		return
	}
	seq := r.tx.pendingFrame.Seq
	if _, ok := r.built[seq]; ok {
		return
	}
	if r.banned[p] {
		r.t.Fatalf("seq %d reuses an aggregate whose frame could still be read", seq)
	}
	args := make([]int64, len(p.mpdus))
	for i, m := range p.mpdus {
		args[i] = m.Arg
	}
	r.built[seq], r.builtAt[seq] = args, r.s.Now()
	if r.seen[p] {
		r.reused++
	}
	r.seen[p] = true
}

func (r *lifetimeRig) deliver(arg int64) { r.got = append(r.got, [2]int64{r.rx.lastRxSeq, arg}) }

// run offers n MPDUs in small batches (retrying through link outages)
// and lets the link drain.
func (r *lifetimeRig) run(n int64) {
	var feed func()
	feed = func() {
		for i := 0; i < 4 && r.next < n; i++ {
			if !r.tx.Send(mac.MPDU{Bytes: 1500, OnDeliver: r.deliver, Arg: r.next}) {
				break
			}
			r.next++
		}
		if r.next < n {
			r.s.After(20*time.Microsecond, feed)
		}
	}
	feed()
	r.s.Run(r.s.Now() + 400*time.Millisecond)
}

// verify checks every delivered frame against its build-time copy: the
// dock's Arg sequence must be exactly the concatenation of the reference
// runs of the frames it accepted, each frame at most once.
func (r *lifetimeRig) verify() {
	r.t.Helper()
	if len(r.got) == 0 {
		r.t.Fatal("nothing delivered")
	}
	done := map[int64]bool{}
	for i := 0; i < len(r.got); {
		seq := r.got[i][0]
		if done[seq] {
			r.t.Fatalf("frame %d delivered twice", seq)
		}
		done[seq] = true
		want, ok := r.built[seq]
		if !ok {
			r.t.Fatalf("delivered frame %d was never built", seq)
		}
		for k, w := range want {
			if i+k >= len(r.got) || r.got[i+k] != [2]int64{seq, w} {
				r.t.Fatalf("frame %d: delivery %d differs from its build-time copy %v", seq, k, want)
			}
		}
		i += len(want)
	}
	// The queue is FIFO and frames leave in order, so whatever survives
	// retries and link breaks arrives in send order.
	for i := 1; i < len(r.got); i++ {
		if r.got[i][1] <= r.got[i-1][1] {
			r.t.Fatalf("Arg %d delivered after %d", r.got[i][1], r.got[i-1][1])
		}
	}
	if r.reused == 0 {
		r.t.Fatal("no aggregate was reused: the pool was never exercised")
	}
}

// dropFirstAttempt makes the dock miss the first attempt of the frame
// *seq names, forcing a retransmission of it.
func (r *lifetimeRig) dropFirstAttempt(seq *int64) {
	dropped := false
	r.med.SetDeliveryFilter(func(f phy.Frame, tx, rx *sim.Radio) bool {
		if f.Type == phy.FrameData && f.Seq == *seq && rx == r.rx.radio && !dropped {
			dropped = true
			return false
		}
		return true
	})
}

// lateAck puts a block-ACK for seq from the dock on the air now.
func (r *lifetimeRig) lateAck(seq int64) {
	r.rx.transmit(phy.Frame{Type: phy.FrameAck, Src: r.rx.radio.ID, Dst: r.tx.radio.ID, Seq: seq})
}

// (a) An ACK for an earlier attempt lands while the retransmission is on
// air. The dock missed the first attempt, so the retransmission is the
// copy it delivers — the case in which a recycled buffer would be read.
// The sender builds the next aggregate before the retransmission ends;
// the retransmitted one must not be the buffer it reuses.
func TestPayloadLateAckDuringRetransmission(t *testing.T) {
	r := newLifetimeRig(t, 31)
	target := int64(-1)
	r.dropFirstAttempt(&target)
	var retxEnd sim.Time
	r.around = func(send func()) {
		retry := r.tx.pending != nil && r.tx.pendingFrame.Seq == target
		send()
		if target < 0 && len(r.built) == 6 {
			target = r.tx.pendingFrame.Seq
		}
		if p := r.tx.pending; retry && retxEnd == 0 && p != nil && p.deferred == 0 && p.airEnd > r.s.Now() {
			retxEnd = p.airEnd
			r.banned[p] = true
			r.lateAck(target)
		}
	}
	r.run(1500)
	if retxEnd == 0 {
		t.Fatal("the retransmission never went on air")
	}
	if at, ok := r.builtAt[target+1]; !ok || at >= retxEnd {
		t.Fatalf("next frame built at %v, want before the retransmission ends at %v", at, retxEnd)
	}
	if _, ok := r.built[target]; !ok {
		t.Fatal("target frame not built")
	}
	r.verify()
}

// (b) A retransmission waits behind txBusyUntil in the deferred FIFO
// when a late ACK for it arrives; the next aggregate is built (and
// deferred behind it) while the copy is still queued.
func TestPayloadDeferredBehindTxBusy(t *testing.T) {
	r := newLifetimeRig(t, 32)
	target := int64(-1)
	r.dropFirstAttempt(&target)
	var held *aggregate
	builtWhileHeld := false
	r.around = func(send func()) {
		retry := r.tx.pending != nil && r.tx.pendingFrame.Seq == target
		if retry && held == nil {
			// The device is still busy with a (notional) earlier frame.
			if busy := r.s.Now() + 40*time.Microsecond; busy > r.tx.txBusyUntil {
				r.tx.txBusyUntil = busy
			}
		}
		send()
		if target < 0 && len(r.built) == 8 {
			target = r.tx.pendingFrame.Seq
		}
		if held != nil && held.deferred > 0 && r.tx.pending != nil && r.tx.pendingFrame.Seq == target+1 {
			builtWhileHeld = true
		}
		if p := r.tx.pending; retry && held == nil && p != nil && p.deferred > 0 {
			held = p
			r.banned[p] = true
			r.lateAck(target)
		}
	}
	r.run(1500)
	if held == nil {
		t.Fatal("the retransmission was never deferred")
	}
	if !builtWhileHeld {
		t.Fatal("next aggregate was not built while the deferred copy was queued")
	}
	if len(r.tx.deferred.buf) != 0 || held.deferred != 0 {
		t.Fatalf("deferred FIFO not drained: %d queued, held count %d", len(r.tx.deferred.buf)-r.tx.deferred.head, held.deferred)
	}
	r.verify()
}

// (c) The link breaks while a data frame is on air: the dock is torn
// down before the frame ends, the stream resumes after re-association,
// and the torn-down frame's aggregate never returns to the pool.
func TestPayloadLinkBreakMidFrame(t *testing.T) {
	r := newLifetimeRig(t, 33)
	var brokenAt sim.Time
	r.around = func(send func()) {
		send()
		p := r.tx.pending
		if brokenAt != 0 || len(r.built) < 10 || p == nil || p.deferred > 0 || p.airEnd <= r.s.Now() {
			return
		}
		brokenAt = r.s.Now() + (p.airEnd-r.s.Now())/2
		r.banned[p] = true
		r.s.At(brokenAt, func() {
			r.tx.breakReason = "test"
			r.tx.linkBreak()
		})
	}
	r.run(1500)
	if brokenAt == 0 || r.tx.Stats.LinkBreaks != 1 {
		t.Fatalf("link break not forced (breaks=%d)", r.tx.Stats.LinkBreaks)
	}
	after := 0
	for _, at := range r.builtAt {
		if at > brokenAt {
			after++
		}
	}
	if after == 0 {
		t.Fatal("no frames after re-association")
	}
	r.verify()
}

// A warmed WiGig link carrying a TCP flow delivers aggregates without
// allocating: MPDU queue, delivery callbacks, aggregate payloads and
// deferred transmits all run on retained storage.
func TestDeliveredAggregateZeroAlloc(t *testing.T) {
	s, _, l := newLink(t, 2, 34)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	f := transport.NewFlow(s, l.Station, l.Dock, transport.Config{})
	f.Start()
	s.Run(s.Now() + 50*time.Millisecond)
	deliverOne := func() {
		seq := l.Dock.lastRxSeq
		for l.Dock.lastRxSeq == seq {
			s.Run(s.Now() + time.Microsecond)
		}
	}
	before := f.Delivered
	if n := testing.AllocsPerRun(1, func() {
		for range 500 {
			deliverOne()
		}
	}); n != 0 {
		t.Errorf("delivering 500 aggregates allocates %v times, want 0", n)
	}
	if f.Delivered == before {
		t.Fatal("the flow delivered nothing while measured")
	}
}

// releasePending must keep an aggregate whose latest attempt ends
// exactly now out of the pool — the medium's finish event at airEnd may
// not have delivered it yet — and pool one that left the air before now.
func TestReleasePendingAtAirEnd(t *testing.T) {
	s, _, l := newLink(t, 2, 35)
	s.Run(s.Now() + time.Millisecond)
	d := l.Station
	now := s.Now()
	for _, c := range []struct {
		airEnd sim.Time
		pooled bool
	}{{now, false}, {now - 1, true}} {
		agg := &aggregate{airEnd: c.airEnd}
		d.pending = agg
		free := len(d.aggFree)
		d.releasePending()
		if d.pending != nil {
			t.Fatal("releasePending left the aggregate pending")
		}
		pooled := len(d.aggFree) == free+1 && d.aggFree[free] == agg
		if pooled != c.pooled {
			t.Errorf("airEnd %v at now %v: pooled = %v, want %v", c.airEnd, now, pooled, c.pooled)
		}
	}
}
