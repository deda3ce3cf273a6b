// Package fault injects the one fault the paper measures: human
// blockage, which attenuates a 60 GHz link by 20–40 dB and forces
// re-beamforming (Figs. 13/14). Each Blockage burst lowers one radio
// pair's shadowing offset for a fixed window. Nothing is drawn at
// random, so a faulted run replays bit-identically at any worker count.
package fault

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Blockage is one burst: a body in the path of Link from At to
// At+Duration, attenuating it by DepthDB.
type Blockage struct {
	// Link names the two radios of the blocked link, in either order.
	Link [2]string
	// At is the burst onset; Duration its length.
	At, Duration time.Duration
	// DepthDB is the attenuation while the burst lasts.
	DepthDB float64
}

// Install checks the bursts against the medium's radios and schedules
// each burst's hooks: at onset it saves the pair's link offset and
// lowers it by DepthDB; at the end it restores the saved value. Since
// each end restores what its onset saved, two bursts on one pair must
// not overlap or touch. Call Install before the scheduler runs.
func Install(med *sim.Medium, bursts ...Blockage) error {
	ids := make(map[string]int, len(med.Radios()))
	for _, r := range med.Radios() {
		if _, dup := ids[r.Name]; !dup {
			ids[r.Name] = r.ID
		}
	}
	pairs := make([][2]int, len(bursts))
	for i, b := range bursts {
		if b.At < 0 || b.Duration <= 0 || !(b.DepthDB > 0) {
			return fmt.Errorf("fault: burst %d: need At >= 0, Duration > 0 and DepthDB > 0, got %v, %v, %v",
				i, b.At, b.Duration, b.DepthDB)
		}
		for _, name := range b.Link {
			if _, ok := ids[name]; !ok {
				return fmt.Errorf("fault: burst %d: unknown radio %q", i, name)
			}
		}
		lo, hi := ids[b.Link[0]], ids[b.Link[1]]
		if lo == hi {
			return fmt.Errorf("fault: burst %d: link needs two distinct radios", i)
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		pairs[i] = [2]int{lo, hi}
		for j, o := range bursts[:i] {
			if pairs[j] == pairs[i] && b.At <= o.At+o.Duration && o.At <= b.At+b.Duration {
				return fmt.Errorf("fault: bursts %d and %d overlap on link %s-%s", j, i, b.Link[0], b.Link[1])
			}
		}
	}
	for _, b := range bursts {
		a, c, depth := ids[b.Link[0]], ids[b.Link[1]], b.DepthDB
		var saved float64
		med.Sched.At(b.At, func() {
			saved = med.LinkOffset(a, c)
			med.SetLinkOffset(a, c, saved-depth)
		})
		med.Sched.At(b.At+b.Duration, func() { med.SetLinkOffset(a, c, saved) })
	}
	return nil
}
