// Package mac holds the pieces shared by the WiGig (D5000) and WiHD
// (Air-3c) protocol models: the MPDU abstraction handed down from the
// transport layer, bounded transmit queues, per-link statistics, and the
// probe-based sector selection both MACs use after their (timing-level)
// association exchanges.
package mac

import (
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
)

// MPDU is one upper-layer packet queued for transmission. The MAC may
// aggregate several MPDUs into a single PHY frame (A-MPDU style); the
// paper shows WiGig scales throughput 171→934 Mbps purely through this
// aggregation (§4.1).
type MPDU struct {
	// Bytes is the MPDU length including MAC framing.
	Bytes int
	// OnDeliver runs on the receiving device when the MPDU arrives
	// (once, even across retransmissions), called with Arg. Senders
	// bind one method value and tag each MPDU through Arg (a TCP flow
	// passes the segment or ACK number), so queuing an MPDU allocates
	// no closure.
	OnDeliver func(arg int64)
	// Arg is handed to OnDeliver.
	Arg int64
}

// Deliver runs the MPDU's delivery callback, if any.
func (m MPDU) Deliver() {
	if m.OnDeliver != nil {
		m.OnDeliver(m.Arg)
	}
}

// Queue is a bounded FIFO of MPDUs over one retained backing array:
// the live entries are items[head:]. Pop advances head and shifts the
// tail down in place once the dead prefix is as long as the live tail,
// so the array never grows past twice the live count plus append slack,
// and a drained queue refills without reallocating.
type Queue struct {
	items []MPDU
	head  int
	limit int
	// Dropped counts MPDUs rejected because the queue was full.
	Dropped int
}

// NewQueue returns a queue holding at most limit MPDUs.
func NewQueue(limit int) *Queue { return &Queue{limit: limit} }

// Push appends an MPDU; it reports false (and counts a drop) when full.
func (q *Queue) Push(m MPDU) bool {
	if q.Len() >= q.limit {
		q.Dropped++
		return false
	}
	q.items = append(q.items, m)
	return true
}

// Len returns the number of queued MPDUs.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Bytes returns the total queued payload.
func (q *Queue) Bytes() int {
	b := 0
	for _, m := range q.items[q.head:] {
		b += m.Bytes
	}
	return b
}

// Peek returns up to n MPDUs from the head without removing them. The
// slice aliases the queue and keeps its contents until the next Pop or
// Clear.
func (q *Queue) Peek(n int) []MPDU {
	live := q.items[q.head:]
	if n > len(live) {
		n = len(live)
	}
	return live[:n]
}

// PeekAir returns the longest head run of MPDUs whose total size fits in
// maxBytes, but at least one MPDU if any is queued — the aggregation
// decision the transmitter makes when it wins the channel. Like Peek,
// the slice is valid until the next Pop or Clear.
func (q *Queue) PeekAir(maxBytes int) []MPDU {
	live := q.items[q.head:]
	if len(live) == 0 {
		return nil
	}
	total := 0
	n := 0
	for _, m := range live {
		if n > 0 && total+m.Bytes > maxBytes {
			break
		}
		total += m.Bytes
		n++
	}
	return live[:n]
}

// Pop removes the first n MPDUs.
func (q *Queue) Pop(n int) {
	if live := q.Len(); n > live {
		n = live
	}
	h := q.head + n
	clear(q.items[q.head:h]) // drop the delivery callbacks' references
	if live := len(q.items) - h; h >= live {
		copy(q.items, q.items[h:])
		clear(q.items[live:])
		q.items = q.items[:live]
		h = 0
	}
	q.head = h
}

// Clear empties the queue (link break), keeping the backing array.
func (q *Queue) Clear() {
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
}

// Stats aggregates what a device observed on its link; experiments read
// these alongside the sniffer's independent measurements.
type Stats struct {
	// FramesSent counts transmitted data PPDUs (including retries).
	FramesSent int
	// Retries counts retransmitted data PPDUs.
	Retries int
	// MPDUsDelivered counts MPDUs handed to the upper layer at the
	// receiver.
	MPDUsDelivered int
	// BytesDelivered sums their payload.
	BytesDelivered int64
	// AckTimeouts counts missing acknowledgements (the signature of the
	// collisions in Fig. 21a).
	AckTimeouts int
	// Realignments counts beam re-training events after association
	// (Fig. 14 ties rate changes to these).
	Realignments int
	// LinkBreaks counts full disassociations.
	LinkBreaks int
	// CSDefers counts transmission attempts deferred by carrier sensing
	// (the D5000 behaviour in Fig. 21b).
	CSDefers int
	// TxAirTime accumulates time spent transmitting data frames.
	TxAirTime sim.Time
}

// SelectSector evaluates every sector of the oriented codebook as the
// transmit pattern of dev towards peer (peer listening quasi-omni) and
// returns the index with the highest received power, along with that
// power in dBm.
//
// This is the fixed point a sector-level sweep (SLS) converges to; both
// MAC models run it after exchanging their association frames rather
// than simulating each sweep frame. The paper does not measure training
// airtime, so the shortcut trades nothing observable — but crucially the
// choice still runs through the real channel: obstacles, reflections and
// device orientation all influence which sector wins, which is exactly
// how the misaligned-dock experiments (Figs. 17/22 "rotated") select a
// boundary sector with degraded directionality.
//
// The whole sweep is one batched kernel call (sim.Medium.SweepTxPowerDBm
// over the pair's cached ray bundle); neither radio's mounted pattern is
// touched. Ties keep the first (lowest-index) sector, matching the
// scalar sweep this replaced.
func SelectSector(med *sim.Medium, dev, peer *sim.Radio, oc *OrientedCodebook) (int, float64) {
	probe := oc.probe(peerBoresight(dev, peer))
	powers := med.SweepTxPowerDBm(dev, peer, oc.sectorRefs, probe)
	bestIdx, bestP := -1, math.Inf(-1)
	for i, p := range powers {
		if p > bestP {
			bestP = p
			bestIdx = i
		}
	}
	return bestIdx, bestP
}

// peerBoresight points the peer's quasi-omni listening pattern roughly
// towards the device (devices physically face each other well enough for
// discovery).
func peerBoresight(dev, peer *sim.Radio) float64 {
	return dev.Pos.Sub(peer.Pos).Angle()
}

// OrientSector returns the gain function of the given codebook sector
// mounted at the device's boresight.
func OrientSector(cb *antenna.Codebook, idx int, boresight float64) sim.GainFunc {
	return antenna.Oriented{Pattern: cb.Sectors[idx].Pattern, Boresight: boresight}.GainFunc()
}

// OrientQuasiOmni returns the gain function of quasi-omni codeword idx at
// the device's boresight.
func OrientQuasiOmni(cb *antenna.Codebook, idx int, boresight float64) sim.GainFunc {
	return antenna.Oriented{Pattern: cb.QuasiOmni[idx%len(cb.QuasiOmni)], Boresight: boresight}.GainFunc()
}

// OrientedCodebook holds every codeword of a codebook pre-oriented at a
// fixed boresight. A device's mounting angle never changes, so building
// the gain closures once at construction lets beam switches (sector
// changes, quasi-omni listening rotation, the per-sub-element discovery
// sweep) reuse them instead of allocating a fresh closure per switch —
// the dominant per-frame allocation in the MAC hot path.
type OrientedCodebook struct {
	cb         *antenna.Codebook
	sectorRefs []rf.PatternRef
	quasiRefs  []rf.PatternRef
	// probeRef is the cached peer-listening reference (quasi-omni
	// codeword 0 pointed at the peer), rebuilt only when the probe
	// direction changes — devices are static, so in practice once.
	probeRef  rf.PatternRef
	probeBore float64
	probeOk   bool
}

// OrientCodebook orients every sector and quasi-omni codeword of cb at
// the given boresight, building the batched pattern references the
// medium's kernels evaluate. Each ref carries the scalar gain closure
// plus a table probe, so installing one on a radio keeps the public
// GainFunc view intact while the batch path gathers from float32 slabs
// once the pattern is hot.
func OrientCodebook(cb *antenna.Codebook, boresight float64) *OrientedCodebook {
	return &OrientedCodebook{
		cb:         cb,
		sectorRefs: cb.SectorRefs(nil, boresight),
		quasiRefs:  cb.QuasiOmniRefs(nil, boresight),
	}
}

// Sector returns the pre-oriented gain function of sector idx.
func (oc *OrientedCodebook) Sector(idx int) sim.GainFunc { return oc.sectorRefs[idx].Gain }

// SectorRef returns the batched pattern reference of sector idx, for
// installation via sim.Radio.SetTxPattern / SetRxPattern.
func (oc *OrientedCodebook) SectorRef(idx int) rf.PatternRef { return oc.sectorRefs[idx] }

// QuasiOmni returns the pre-oriented gain function of quasi-omni
// codeword idx (wrapped modulo the codebook size, matching
// OrientQuasiOmni).
func (oc *OrientedCodebook) QuasiOmni(idx int) sim.GainFunc {
	return oc.quasiRefs[idx%len(oc.quasiRefs)].Gain
}

// QuasiOmniRef returns the batched pattern reference of quasi-omni
// codeword idx (wrapped like QuasiOmni).
func (oc *OrientedCodebook) QuasiOmniRef(idx int) rf.PatternRef {
	return oc.quasiRefs[idx%len(oc.quasiRefs)]
}

// probe returns the peer-listening reference pointed at bore.
func (oc *OrientedCodebook) probe(bore float64) *rf.PatternRef {
	if !oc.probeOk || oc.probeBore != bore {
		oc.probeRef = antenna.Ref(oc.cb.QuasiOmni[0], bore)
		oc.probeBore = bore
		oc.probeOk = true
	}
	return &oc.probeRef
}

// Towards returns the global angle from a to b.
func Towards(a, b geom.Vec2) float64 { return b.Sub(a).Angle() }
