package wihd

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/phy"
)

// withAudit runs fn with the auditor in warn mode and clean counters,
// restoring the previous mode afterwards.
func withAudit(t *testing.T, fn func()) {
	t.Helper()
	prev := audit.SetMode(audit.Warn)
	audit.Reset()
	defer func() {
		audit.SetMode(prev)
		audit.Reset()
	}()
	fn()
}

// A paired, streaming system must hold its burst cap and beacon cadence.
func TestWiHDAuditCleanStreaming(t *testing.T) {
	withAudit(t, func() {
		s, _, sys := newSystem(t, 8, 71)
		if !sys.WaitPaired(s, time.Second) {
			t.Fatal("system did not pair")
		}
		s.Run(s.Now() + 100*time.Millisecond)
		if sys.RX.FramesDecoded == 0 {
			t.Fatal("no video flowed")
		}
		if n := audit.Total(); n != 0 {
			t.Fatalf("clean stream recorded %d violations: %s", n, audit.Summary())
		}
	})
}

// A video frame whose air-time exceeds the cap must be classified under
// wihd.burst.air.
func TestWiHDAuditCatchesOversizedBurst(t *testing.T) {
	withAudit(t, func() {
		s, _, sys := newSystem(t, 8, 73)
		if !sys.WaitPaired(s, time.Second) {
			t.Fatal("system did not pair")
		}
		tx := sys.TX
		// Twice the lawful payload at the stream MCS: the queue-drain
		// bound was bypassed.
		over := phy.Frame{
			Type: phy.FrameData, Src: tx.radio.ID, Dst: tx.peer.radio.ID,
			MCS: tx.dataMCS, PayloadBytes: 2 * tx.dataMCS.MaxAggBytes(MaxFrameAir),
		}
		tx.sendVideoFrame(over, over.Duration())
		if audit.Counts()[audit.RuleWiHDBurstAir] == 0 {
			t.Fatalf("oversized burst not caught: %s", audit.Summary())
		}
	})
}

// A doubled beacon loop (the gap between ticks collapsing to well under
// the 224 µs period) must be flagged under wihd.beacon.cadence — as a
// warn-severity rule it never aborts a strict run.
func TestWiHDAuditCatchesBeaconCadence(t *testing.T) {
	withAudit(t, func() {
		s, _, sys := newSystem(t, 8, 75)
		if !sys.WaitPaired(s, time.Second) {
			t.Fatal("system did not pair")
		}
		rx := sys.RX
		s.Run(s.Now() + 5*time.Millisecond)
		if audit.Total() != 0 {
			t.Fatalf("steady beacons flagged: %s", audit.Summary())
		}
		// Start a second beacon loop, as a power cycle shorter than one
		// beacon interval would: ticks now interleave at half the period.
		rx.beaconTick()
		s.Run(s.Now() + 5*time.Millisecond)
		if audit.Counts()[audit.RuleWiHDBeaconCadence] == 0 {
			t.Fatalf("doubled beacon loop not caught: %s", audit.Summary())
		}
		if m, _ := audit.Describe(audit.RuleWiHDBeaconCadence); m.Severity != audit.SevWarn {
			t.Fatal("beacon cadence must be warn severity")
		}
	})
}
