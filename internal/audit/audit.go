// Package audit is the runtime invariant auditor: a zero-overhead-when-off
// layer of lawfulness checks that the scheduler, the medium, both MAC
// models, and the TCP model consult while any experiment runs. The
// paper's authors could sanity-check their measurements against physics
// (link budgets, the Table 1 frame timings) and the 802.11ad spec; this
// package gives the reproduction the same guardrails, so a silent
// energy-accounting or NAV bug cannot quietly corrupt every downstream
// figure — especially now that fault injection deliberately drives the
// models into their failure paths.
//
// Design:
//
//   - One process-wide auditor. Everything that can violate an invariant
//     already hangs off a scheduler, so violations carry the violating
//     component's simulation time; the global ring and counters are
//     mutex-protected because campaign experiments run in parallel.
//   - The off mode is the default and costs one atomic load per check
//     site (audit.On()); no check work runs, no memory is touched.
//   - Warn mode records violations (bounded ring + per-rule counters)
//     and lets the run continue; the mmsim CLI reports the counts.
//   - Strict mode records, then panics with *ViolationError on any
//     error-severity violation. The campaign runner's panic isolation
//     (par.Guarded) converts that into a structured FAIL classified by
//     rule name, exactly like a *sim.DeadlineError.
//
// Adding a rule: declare the Rule constant, register it in taxonomy with
// a severity and a one-line description, and call audit.Reportf from the
// code that can observe the violation, guarded by audit.On().
package audit

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects how much the auditor does.
type Mode int32

// The auditing modes, in increasing strictness.
const (
	// Off disables all checks (the default; check sites cost one atomic
	// load).
	Off Mode = iota
	// Warn records violations and lets the run continue.
	Warn
	// Strict records, then aborts the experiment (panic with
	// *ViolationError) on the first error-severity violation.
	Strict
)

var modeNames = [...]string{"off", "warn", "strict"}

// String names the mode as the -audit flag spells it.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int32(m))
	}
	return modeNames[m]
}

// ParseMode parses an -audit flag value.
func ParseMode(s string) (Mode, error) {
	for i, n := range modeNames {
		if s == n {
			return Mode(i), nil
		}
	}
	return Off, fmt.Errorf("audit: unknown mode %q (want off, warn, or strict)", s)
}

// Severity classifies how bad a violation is.
type Severity int

// Violation severities.
const (
	// SevWarn marks soft invariants (timing cadences) that tolerate
	// scheduling jitter; they never abort a strict run.
	SevWarn Severity = iota
	// SevError marks hard invariants; strict mode fails the experiment.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Rule identifies one invariant in the violation taxonomy. The naming is
// subsystem.object.property.
type Rule string

// The violation taxonomy. One constant per checked invariant.
const (
	// RuleSchedTimeMonotone: the scheduler clock never moves backwards —
	// no event fires at a time earlier than the current simulation time.
	RuleSchedTimeMonotone Rule = "sched.time.monotone"
	// RuleSchedHeapConsistent: the event heap satisfies the heap
	// property, every queued timer's index matches its slot, and Pending
	// counts exactly the live queued events.
	RuleSchedHeapConsistent Rule = "sched.heap.consistent"
	// RuleMediumTxDuration: no transmission occupies the air for zero or
	// negative time, nor for as long as the medium's interference
	// retention window (400 µs): pruning and the overlap scan both rely
	// on every PPDU ending inside it.
	RuleMediumTxDuration Rule = "medium.tx.duration"
	// RuleMediumEnergyConserved: the energy-detect total at a radio
	// equals the sum of the per-radio contributions of every live
	// transmission — no energy appears or vanishes in the accounting.
	RuleMediumEnergyConserved Rule = "medium.energy.conserved"
	// RuleMediumRxOverpower: no frame is delivered stronger than the
	// transmit power plus the maximum coupled array gain — received
	// power above that bound means a sign or accounting bug, since any
	// real path adds loss on top.
	RuleMediumRxOverpower Rule = "medium.rx.overpower"
	// RulePhyMCSRange: every transmitted frame's MCS lies on the ladder
	// (MCS0 through MCS12).
	RulePhyMCSRange Rule = "phy.mcs.range"
	// RulePhyPERRange: the PER model returns probabilities in [0, 1].
	RulePhyPERRange Rule = "phy.per.range"
	// RulePhySINREVMCap: the effective SINR respects the EVM ceiling
	// (24.5 dB in the calibrated budget) — consumer silicon cannot
	// demodulate better than its distortion floor.
	RulePhySINREVMCap Rule = "phy.sinr.evmcap"
	// RuleWiGigDataBeforeAssoc: a WiGig device never puts a data frame
	// on air outside the associated state.
	RuleWiGigDataBeforeAssoc Rule = "wigig.assoc.data-before-assoc"
	// RuleWiGigNAVDecrease: the NAV never decreases while a hold is in
	// progress — reservations may only be extended, never shortened.
	RuleWiGigNAVDecrease Rule = "wigig.nav.decrease"
	// RuleWiGigTXOPOverrun: no data frame extends a TXOP burst past the
	// 2 ms bound of §4.1.
	RuleWiGigTXOPOverrun Rule = "wigig.txop.overrun"
	// RuleWiGigRetryBound: per-frame retransmission counters stay within
	// the retry budget and the consecutive-failure teardown threshold.
	RuleWiGigRetryBound Rule = "wigig.retry.bound"
	// RuleWiHDBurstAir: no WiHD video burst exceeds its configured
	// air-time cap (180 µs stock).
	RuleWiHDBurstAir Rule = "wihd.burst.air"
	// RuleWiHDBeaconCadence: a paired, powered WiHD receiver beacons at
	// its 224 µs cadence — neither silent gaps nor doubled
	// beacon loops.
	RuleWiHDBeaconCadence Rule = "wihd.beacon.cadence"
	// RuleTCPSeqOrder: TCP sequence bookkeeping stays ordered — the
	// cumulative ACK point never passes the send point and never moves
	// backwards.
	RuleTCPSeqOrder Rule = "tcp.seq.order"
	// RuleTCPCwndRange: the congestion window stays at least one segment,
	// finite, and ssthresh never collapses below its floor.
	RuleTCPCwndRange Rule = "tcp.cwnd.range"
)

// Meta describes one taxonomy entry.
type Meta struct {
	// Severity is the rule's fixed severity class.
	Severity Severity
	// Desc is a one-line description for reports and docs.
	Desc string
}

// taxonomy maps every known rule to its classification. Reportf refuses
// unknown rules loudly (a typoed rule name must not silently count under
// a fresh bucket).
var taxonomy = map[Rule]Meta{
	RuleSchedTimeMonotone:     {SevError, "scheduler clock moved backwards"},
	RuleSchedHeapConsistent:   {SevError, "event heap or Pending count inconsistent"},
	RuleMediumTxDuration:      {SevError, "transmission air-time non-positive or not under the 400 µs retention window"},
	RuleMediumEnergyConserved: {SevError, "energy-detect total diverges from per-radio contributions"},
	RuleMediumRxOverpower:     {SevError, "delivery above transmit power plus max array gain"},
	RulePhyMCSRange:           {SevError, "MCS outside the 802.11ad ladder"},
	RulePhyPERRange:           {SevError, "packet error rate outside [0, 1]"},
	RulePhySINREVMCap:         {SevError, "effective SINR above the EVM ceiling"},
	RuleWiGigDataBeforeAssoc:  {SevError, "data frame on air outside the associated state"},
	RuleWiGigNAVDecrease:      {SevError, "NAV shortened mid-hold"},
	RuleWiGigTXOPOverrun:      {SevError, "data burst past the 2 ms TXOP bound"},
	RuleWiGigRetryBound:       {SevError, "retransmission counter beyond its budget"},
	RuleWiHDBurstAir:          {SevError, "video burst past the air-time cap"},
	RuleWiHDBeaconCadence:     {SevWarn, "paired receiver beacon cadence off its 224 µs period"},
	RuleTCPSeqOrder:           {SevError, "TCP sequence bookkeeping out of order"},
	RuleTCPCwndRange:          {SevError, "congestion window outside its lawful range"},
}

// Rules returns the full taxonomy, sorted by rule name — the docs and
// the mmsim audit summary iterate this.
func Rules() []Rule {
	out := make([]Rule, 0, len(taxonomy))
	for r := range taxonomy {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Describe returns the taxonomy entry for a rule.
func Describe(r Rule) (Meta, bool) {
	m, ok := taxonomy[r]
	return m, ok
}

// Violation is one recorded invariant breach.
type Violation struct {
	// Rule names the broken invariant.
	Rule Rule
	// Severity mirrors the rule's taxonomy class.
	Severity Severity
	// Time is the violating component's simulation clock.
	Time time.Duration
	// Detail is the human-readable specifics.
	Detail string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s at %v: %s", v.Severity, v.Rule, v.Time, v.Detail)
}

// ErrViolation is the errors.Is target every *ViolationError wraps.
var ErrViolation = errors.New("audit: invariant violated")

// ViolationError is the panic value a strict-mode violation raises. The
// campaign runner recovers it and synthesizes a structured FAIL carrying
// the rule name.
type ViolationError struct {
	// V is the recorded violation.
	V Violation
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("audit: invariant %s violated at %v: %s", e.V.Rule, e.V.Time, e.V.Detail)
}

// Unwrap makes errors.Is(err, ErrViolation) hold through wrapping.
func (e *ViolationError) Unwrap() error { return ErrViolation }

// RingSize bounds the retained violation details. Counters keep exact
// totals past the ring; the ring keeps the most recent specifics.
const RingSize = 256

var (
	mode atomic.Int32

	mu     sync.Mutex
	ring   [RingSize]Violation
	next   int    // ring write cursor
	stored int    // min(total, RingSize)
	total  uint64 // all-time violation count
	counts map[Rule]uint64
)

// On reports whether any auditing is enabled. This is the fast path
// every check site guards with: one atomic load, nothing else, so an
// -audit=off run pays essentially nothing.
func On() bool { return mode.Load() != int32(Off) }

// SetMode switches the auditor's mode and returns the previous one.
func SetMode(m Mode) Mode { return Mode(mode.Swap(int32(m))) }

// CurrentMode returns the active mode.
func CurrentMode() Mode { return Mode(mode.Load()) }

// Reportf records one violation of rule at simulation time t. The
// severity comes from the taxonomy; unknown rules are themselves an
// error-severity violation (a typo must not vanish into a new bucket).
// In strict mode an error-severity violation panics with a
// *ViolationError after recording, so the campaign runner can fail the
// experiment with the rule name attached.
func Reportf(rule Rule, t time.Duration, format string, args ...any) {
	if !On() {
		return
	}
	meta, ok := taxonomy[rule]
	v := Violation{Rule: rule, Severity: meta.Severity, Time: t, Detail: fmt.Sprintf(format, args...)}
	if !ok {
		v.Severity = SevError
		v.Detail = fmt.Sprintf("unregistered audit rule %q: %s", rule, v.Detail)
	}
	record(v)
	if CurrentMode() == Strict && v.Severity == SevError {
		panic(&ViolationError{V: v})
	}
}

func record(v Violation) {
	mu.Lock()
	defer mu.Unlock()
	if counts == nil {
		counts = make(map[Rule]uint64)
	}
	counts[v.Rule]++
	total++
	ring[next] = v
	next = (next + 1) % RingSize
	if stored < RingSize {
		stored++
	}
}

// Total returns the all-time violation count since the last Reset.
func Total() uint64 {
	mu.Lock()
	defer mu.Unlock()
	return total
}

// Counts returns a copy of the per-rule violation counters.
func Counts() map[Rule]uint64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[Rule]uint64, len(counts))
	for r, n := range counts {
		out[r] = n
	}
	return out
}

// Recent returns the retained violations, oldest first (at most
// RingSize; earlier ones survive only in the counters).
func Recent() []Violation {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Violation, 0, stored)
	start := next - stored
	if start < 0 {
		start += RingSize
	}
	for i := 0; i < stored; i++ {
		out = append(out, ring[(start+i)%RingSize])
	}
	return out
}

// Reset clears the ring and every counter (mode is untouched). Tests and
// fresh campaigns call this.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	next, stored, total = 0, 0, 0
	counts = nil
}

// Summary renders the per-rule counts as the one-line-per-rule report
// the mmsim CLI prints after a warn or strict campaign; it returns
// "clean" when nothing was recorded.
func Summary() string {
	c := Counts()
	if len(c) == 0 {
		return "clean"
	}
	rules := make([]Rule, 0, len(c))
	for r := range c {
		rules = append(rules, r)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i] < rules[j] })
	s := ""
	for i, r := range rules {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s×%d", r, c[r])
	}
	return s
}
