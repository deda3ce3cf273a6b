// Package coexist operationalizes the design principles of the paper's
// Discussion (§5): because consumer-grade beams have strong side lobes
// and walls reflect twice with measurable energy, MAC/deployment
// decisions should be driven by a *geometric interference prediction
// that includes up to two reflections* rather than by naive
// pencil-beam assumptions.
//
// The package predicts pairwise coupling between directional links in a
// room — through the same ray tracer and antenna patterns the simulator
// uses — classifies link pairs into interference regimes, builds the
// conflict graph, and assigns the two available 60 GHz channels
// (60.48 / 62.64 GHz) to minimize predicted collisions.
package coexist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/rf"
)

// Endpoint is one radio of a planned link.
type Endpoint struct {
	// Pos is the device position in meters.
	Pos geom.Vec2
	// BoresightDeg is the array mounting orientation.
	BoresightDeg float64
	// TxPowerDBm is the conducted power.
	TxPowerDBm float64
}

// Link is a planned directional link between two endpoints.
type Link struct {
	// Name labels the link in reports.
	Name string
	A, B Endpoint
	// Codebook defaults to the D5000 codebook when nil.
	Codebook *antenna.Codebook
}

// Regime classifies predicted pairwise interference.
type Regime int

// Interference regimes, ordered by severity.
const (
	// Isolated: interference stays below the victim's noise floor; the
	// links can share a channel with no interaction.
	Isolated Regime = iota
	// CSCoupled: the interferer is audible to the victim's transmitter
	// (energy detection), so CSMA serializes the links — throughput
	// halves but frames survive.
	CSCoupled
	// Colliding: interference reaches the victim's receiver above the
	// SINR margin of its operating MCS but below the transmitter's
	// carrier-sense threshold — the hidden-interferer case the paper
	// observes between WiGig and WiHD (Fig. 21a). Same-channel operation
	// loses frames.
	Colliding
)

var regimeNames = [...]string{"isolated", "cs-coupled", "colliding"}

// String names the coupling regime for reports.
func (r Regime) String() string {
	if int(r) < 0 || int(r) >= len(regimeNames) {
		return fmt.Sprintf("regime(%d)", int(r))
	}
	return regimeNames[r]
}

// Coupling is the predicted interaction of an interfering link onto a
// victim link.
type Coupling struct {
	// Interferer and Victim index into the analyzed link list.
	Interferer, Victim int
	// WorstRxDBm is the strongest predicted interference power at either
	// victim endpoint, across both interferer transmit directions.
	WorstRxDBm float64
	// ViaReflection reports whether the strongest path bounces at least
	// once — interference the paper's §5 warns geometric protocols would
	// miss if they ignore reflections.
	ViaReflection bool
	// SenseDBm is the interference power at the victim transmitter (the
	// carrier-sensing input).
	SenseDBm float64
	// Regime is the resulting classification.
	Regime Regime
}

// Analyzer predicts couplings in a given room.
type Analyzer struct {
	// Room is the environment (walls reflect, obstacles block).
	Room *geom.Room
	// FreqHz is the carrier; defaults to channel 2.
	FreqHz float64
	// Budget supplies noise floor and margins; defaults to the
	// calibrated consumer budget.
	Budget rf.LinkBudget
	// CSThresholdDBm is the energy-detect threshold assumed for carrier
	// sensing (the D5000-like default).
	CSThresholdDBm float64
	// SINRMarginDB is the margin a victim needs above its operating
	// point before interference is called harmless.
	SINRMarginDB float64
	// MaxReflections bounds the predicted propagation (0–2). The
	// paper's design principle is to use 2; lowering it quantifies what
	// naive geometric protocols miss (see the ablation bench).
	MaxReflections int
}

// NewAnalyzer returns an analyzer with the paper-derived defaults.
func NewAnalyzer(room *geom.Room) *Analyzer {
	return &Analyzer{
		Room:           room,
		FreqHz:         rf.FreqChannel2Hz,
		Budget:         rf.DefaultBudget(),
		CSThresholdDBm: -60,
		SINRMarginDB:   3,
		MaxReflections: 2,
	}
}

// sectorGain returns the trained-beam gain function of an endpoint
// towards its peer: the best codebook sector, oriented by boresight.
func sectorGain(cb *antenna.Codebook, e Endpoint, peer geom.Vec2) rf.GainFunc {
	local := geom.NormalizeAngle(peer.Sub(e.Pos).Angle() - geom.Rad(e.BoresightDeg))
	s := cb.BestSector(local)
	return antenna.Oriented{Pattern: s.Pattern, Boresight: geom.Rad(e.BoresightDeg)}.GainFunc()
}

// codebookOf returns the link's codebook, defaulting to the D5000's.
func codebookOf(l Link) *antenna.Codebook {
	if l.Codebook != nil {
		return l.Codebook
	}
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 1)
	return cb
}

// coupling sums the received power of tx's transmission over the traced
// paths and reports whether the strongest path is a reflection.
func coupling(paths []rf.Path, tx Endpoint, txGain, rxGain rf.GainFunc) (float64, bool) {
	total := rf.ReceivedPowerDBm(tx.TxPowerDBm, paths, txGain, rxGain)
	idx := rf.StrongestPath(paths, txGain, rxGain)
	return total, idx >= 0 && paths[idx].Order > 0
}

// Analyze predicts the coupling of every ordered link pair.
//
// All traces of one call go through a single tracer, so its spatial
// index is built once per call; nothing outlives the call, because
// Analyzer's fields may change between calls. Each of the 4·n(n−1)
// interferer→victim endpoint pairs is traced once, and each victim's
// own signal (both directions) once, the first time the victim comes
// up — the order a per-coupling re-trace would take, so the first error
// is unchanged. The victim's operating point is computed right there
// and reused for every coupling.
func (a *Analyzer) Analyze(links []Link) ([]Coupling, error) {
	type trained struct {
		gainA, gainB rf.GainFunc // trained beams of each endpoint
	}
	beams := make([]trained, len(links))
	for i, l := range links {
		cb := codebookOf(l)
		beams[i] = trained{
			gainA: sectorGain(cb, l.A, l.B.Pos),
			gainB: sectorGain(cb, l.B, l.A.Pos),
		}
	}
	tracer := rf.NewTracer(a.Room, a.FreqHz)
	tracer.MaxOrder = a.MaxReflections
	var paths []rf.Path
	// sigDBm[j] is victim j's operating point — its own signal level at
	// the worse endpoint — once sigDone[j] is set.
	sigDBm := make([]float64, len(links))
	sigDone := make([]bool, len(links))
	noise := a.Budget.NoiseFloorDBm()
	var out []Coupling
	for i := range links {
		for j := range links {
			if i == j {
				continue
			}
			c := Coupling{Interferer: i, Victim: j, WorstRxDBm: math.Inf(-1), SenseDBm: math.Inf(-1)}
			// Both interferer endpoints transmit (data one way, ACKs the
			// other); both victim endpoints receive.
			txs := []struct {
				e Endpoint
				g rf.GainFunc
			}{{links[i].A, beams[i].gainA}, {links[i].B, beams[i].gainB}}
			rxs := []struct {
				e Endpoint
				g rf.GainFunc
			}{{links[j].A, beams[j].gainA}, {links[j].B, beams[j].gainB}}
			for _, tx := range txs {
				for _, rx := range rxs {
					var err error
					if paths, err = tracer.TraceAppend(paths[:0], tx.e.Pos, rx.e.Pos); err != nil {
						return nil, err
					}
					p, via := coupling(paths, tx.e, tx.g, rx.g)
					if p > c.WorstRxDBm {
						c.WorstRxDBm = p
						c.ViaReflection = via
					}
					if p > c.SenseDBm {
						c.SenseDBm = p
					}
				}
			}
			if !sigDone[j] {
				l := links[j]
				var err error
				if paths, err = tracer.TraceAppend(paths[:0], l.A.Pos, l.B.Pos); err != nil {
					return nil, err
				}
				sigAB, _ := coupling(paths, l.A, beams[j].gainA, beams[j].gainB)
				if paths, err = tracer.TraceAppend(paths[:0], l.B.Pos, l.A.Pos); err != nil {
					return nil, err
				}
				sigBA, _ := coupling(paths, l.B, beams[j].gainB, beams[j].gainA)
				sigDBm[j] = math.Min(sigAB, sigBA)
				sigDone[j] = true
			}
			sig := sigDBm[j]
			switch {
			case c.SenseDBm >= a.CSThresholdDBm:
				c.Regime = CSCoupled
			case c.WorstRxDBm >= noise && sig-c.WorstRxDBm < requiredSINR(a.Budget, sig)+a.SINRMarginDB:
				c.Regime = Colliding
			case c.WorstRxDBm >= noise-3:
				c.Regime = Colliding
			default:
				c.Regime = Isolated
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// requiredSINR estimates the SINR the victim's operating MCS needs: the
// threshold of the best MCS its clean signal supports.
func requiredSINR(b rf.LinkBudget, sigDBm float64) float64 {
	snr := b.EffectiveSINRdB(b.SNRdB(sigDBm))
	m, ok := selectMCS(snr)
	if !ok {
		return 0
	}
	return m
}

// selectMCS mirrors phy.SelectMCS thresholds without importing phy (to
// keep this package usable with custom ladders); it returns the MinSNR
// of the operating MCS.
func selectMCS(snr float64) (float64, bool) {
	// Thresholds of the 802.11ad SC ladder (phy.MCS1..12).
	ths := []float64{1, 3, 4.5, 5.5, 6.3, 7.0, 8.5, 10.0, 11.5, 15.0, 17.5, 23.0}
	best := math.Inf(-1)
	for _, th := range ths {
		if snr >= th+1 {
			best = th
		}
	}
	if math.IsInf(best, -1) {
		return 0, false
	}
	return best, true
}

// ConflictGraph returns the adjacency of links whose pairwise regime is
// at least minRegime in either direction.
func ConflictGraph(n int, cs []Coupling, minRegime Regime) [][]int {
	adj := make([][]int, n)
	seen := make(map[[2]int]bool)
	for _, c := range cs {
		if c.Regime < minRegime {
			continue
		}
		a, b := c.Interferer, c.Victim
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

// AssignChannels colors the conflict graph with the given number of
// channels (the 60 GHz band offers two usable ones for these devices),
// preferring to separate the worst conflicts first. Returns one channel
// index per link and the number of conflicting same-channel pairs that
// could not be separated.
func AssignChannels(n int, cs []Coupling, channels int) ([]int, int) {
	if channels < 1 {
		channels = 1
	}
	// Order vertices by conflict degree (descending) — greedy
	// Welsh–Powell coloring.
	adj := ConflictGraph(n, cs, CSCoupled)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(adj[order[a]]) > len(adj[order[b]]) })
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for _, v := range order {
		used := make([]bool, channels)
		for _, u := range adj[v] {
			if assign[u] >= 0 && assign[u] < channels {
				used[assign[u]] = true
			}
		}
		assign[v] = 0
		for ch := 0; ch < channels; ch++ {
			if !used[ch] {
				assign[v] = ch
				break
			}
		}
	}
	unresolved := 0
	for i := range adj {
		for _, j := range adj[i] {
			if i < j && assign[i] == assign[j] {
				unresolved++
			}
		}
	}
	return assign, unresolved
}

// Report renders the analysis in a compact human-readable form.
func Report(links []Link, cs []Coupling) string {
	out := ""
	for _, c := range cs {
		via := "direct"
		if c.ViaReflection {
			via = "reflected"
		}
		out += fmt.Sprintf("%s -> %s: %s (%.1f dBm, %s)\n",
			links[c.Interferer].Name, links[c.Victim].Name, c.Regime, c.WorstRxDBm, via)
	}
	return out
}
