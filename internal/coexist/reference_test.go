package coexist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rf"
)

// referenceAnalyze is Analyze in its original shape: every trace of
// every coupling, the victim's own signal included, gets a fresh tracer
// — here the brute-force one, so the reference shares no index or
// scratch state with the code under test. The gains are evaluated in
// Analyze's order (power sum, then strongest path): PhasedArray gains
// are history-dependent, switching to a lookup table after a fixed
// number of exact evaluations.
func referenceAnalyze(a *Analyzer, links []Link) ([]Coupling, error) {
	couple := func(tx Endpoint, txGain rf.GainFunc, rx Endpoint, rxGain rf.GainFunc) (float64, bool, error) {
		tracer := rf.NewTracer(a.Room, a.FreqHz)
		tracer.MaxOrder = a.MaxReflections
		tracer.Naive = true
		paths, err := tracer.Trace(tx.Pos, rx.Pos)
		if err != nil {
			return math.Inf(-1), false, err
		}
		total := rf.ReceivedPowerDBm(tx.TxPowerDBm, paths, txGain, rxGain)
		idx := rf.StrongestPath(paths, txGain, rxGain)
		return total, idx >= 0 && paths[idx].Order > 0, nil
	}
	gains := make([][2]rf.GainFunc, len(links))
	for i, l := range links {
		cb := l.Codebook
		if cb == nil {
			cb = defaultCodebook() // one instance per link
		}
		gains[i] = [2]rf.GainFunc{sectorGain(cb, l.A, l.B.Pos), sectorGain(cb, l.B, l.A.Pos)}
	}
	noise := a.Budget.NoiseFloorDBm()
	var out []Coupling
	for i := range links {
		for j := range links {
			if i == j {
				continue
			}
			c := Coupling{Interferer: i, Victim: j, WorstRxDBm: math.Inf(-1), SenseDBm: math.Inf(-1)}
			for ti, tx := range []Endpoint{links[i].A, links[i].B} {
				for ri, rx := range []Endpoint{links[j].A, links[j].B} {
					p, via, err := couple(tx, gains[i][ti], rx, gains[j][ri])
					if err != nil {
						return nil, err
					}
					if p > c.WorstRxDBm {
						c.WorstRxDBm, c.ViaReflection = p, via
					}
					if p > c.SenseDBm {
						c.SenseDBm = p
					}
				}
			}
			sigAB, _, err := couple(links[j].A, gains[j][0], links[j].B, gains[j][1])
			if err != nil {
				return nil, err
			}
			sigBA, _, err := couple(links[j].B, gains[j][1], links[j].A, gains[j][0])
			if err != nil {
				return nil, err
			}
			sig := math.Min(sigAB, sigBA)
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

// officeLinks places one seeded link in each listed room of an n-room
// office floor, endpoints facing each other.
func officeLinks(n int, rooms []int, seed int64) []Link {
	rng := rand.New(rand.NewSource(seed))
	var links []Link
	for _, ri := range rooms {
		c := geom.OfficeCenter(n, ri)
		at := func() geom.Vec2 { return c.Add(geom.V(rng.Float64()*3.2-1.6, rng.Float64()*2.2-1.1)) }
		a, b := at(), at()
		for a.Dist(b) < 1 {
			b = at()
		}
		boresight := b.Sub(a).Angle() * 180 / math.Pi
		links = append(links, Link{
			A: Endpoint{Pos: a, BoresightDeg: boresight, TxPowerDBm: rng.Float64() * 10},
			B: Endpoint{Pos: b, BoresightDeg: boresight + 180, TxPowerDBm: rng.Float64() * 10},
		})
	}
	return links
}

func sameCouplings(t *testing.T, ctx string, got, want []Coupling) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d couplings, reference %d", ctx, len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Interferer != w.Interferer || g.Victim != w.Victim || g.ViaReflection != w.ViaReflection ||
			g.Regime != w.Regime || math.Float64bits(g.WorstRxDBm) != math.Float64bits(w.WorstRxDBm) ||
			math.Float64bits(g.SenseDBm) != math.Float64bits(w.SenseDBm) {
			t.Fatalf("%s: coupling %d = %+v, reference %+v", ctx, k, g, w)
		}
	}
}

// TestAnalyzeMatchesReference: one shared indexed tracer and once-per-
// victim signal traces give bit-identical couplings to the per-coupling
// brute-force structure, across floor sizes and reflection orders.
func TestAnalyzeMatchesReference(t *testing.T) {
	cases := []struct {
		rooms    int
		linkRoom []int
		orders   []int
	}{
		{1, []int{0, 0, 0, 0}, []int{0, 1, 2}},
		{16, []int{0, 5, 10, 15, 3, 12}, []int{2}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			links := officeLinks(tc.rooms, tc.linkRoom, seed)
			for _, order := range tc.orders {
				a := NewAnalyzer(geom.OfficeFloor(tc.rooms))
				a.MaxReflections = order
				got, err := a.Analyze(links)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceAnalyze(a, links)
				if err != nil {
					t.Fatal(err)
				}
				sameCouplings(t, fmt.Sprintf("r%d seed %d order %d", tc.rooms, seed, order), got, want)
			}
		}
	}
}

// TestAnalyzeErrorMatchesReference: an unknown wall material fails
// Analyze with the error the per-coupling structure reports first —
// same message, same endpoints.
func TestAnalyzeErrorMatchesReference(t *testing.T) {
	room := geom.OfficeFloor(4)
	room.AddWall(geom.V(1, 1), geom.V(2, 1), "vibranium")
	a := NewAnalyzer(room)
	links := officeLinks(4, []int{0, 1, 3}, 7)
	_, err := a.Analyze(links)
	_, want := referenceAnalyze(a, links)
	var ge, wge *rf.GeometryError
	if !errors.As(err, &ge) || !errors.As(want, &wge) {
		t.Fatalf("errors %v and %v, want *rf.GeometryError from both", err, want)
	}
	if err.Error() != want.Error() || ge.Tx != wge.Tx || ge.Rx != wge.Rx {
		t.Fatalf("Analyze error %v (%v→%v), reference %v (%v→%v)", err, ge.Tx, ge.Rx, want, wge.Tx, wge.Rx)
	}
}
