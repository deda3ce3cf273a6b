package repro

import (
	"time"

	"repro/internal/antenna"
	"repro/internal/coexist"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mac/wigig"
	"repro/internal/mac/wihd"
	"repro/internal/rf"
	"repro/internal/sniffer"
	"repro/internal/transport"
)

// Scenario is the top-level experiment environment: one event scheduler,
// one radio medium, any number of devices and instruments.
type Scenario = core.Scenario

// Result pairs a paper claim with measured values.
type Result = core.Result

// Series is a plottable measurement series.
type Series = core.Series

// Vec2 is a point in the horizontal plane (meters).
type Vec2 = geom.Vec2

// Room is a physical environment built from material walls.
type Room = geom.Room

// WiGigConfig configures one end of a D5000-style WiGig link.
type WiGigConfig = wigig.Config

// WiGigLink is a dock/station pair.
type WiGigLink = wigig.Link

// WiHDConfig configures one WirelessHD module.
type WiHDConfig = wihd.Config

// WiHDSystem is a WirelessHD transmitter/receiver pair.
type WiHDSystem = wihd.System

// Sniffer is the Vubiq-style measurement receiver. It keeps no
// observations: attach a streaming analysis, or a sniffer.Recorder for
// raw windows, as its Sink.
type Sniffer = sniffer.Sniffer

// AngularProfile is a directional energy measurement (Figs. 18–20).
type AngularProfile = sniffer.AngularProfile

// MPDU is one upper-layer packet handed to a MAC.
type MPDU = mac.MPDU

// Flow is the window-based TCP model.
type Flow = transport.Flow

// FlowConfig parameterizes a TCP flow (window, pacing, size).
type FlowConfig = transport.Config

// Iperf wraps a flow with periodic goodput sampling.
type Iperf = transport.Iperf

// ExperimentOptions tunes the per-figure experiment drivers.
type ExperimentOptions = experiments.Options

// Experiment is one registered table/figure reproduction.
type Experiment = experiments.Runner

// NewScenario builds a scenario over a room with the calibrated
// consumer-grade link budget at 60.48 GHz.
func NewScenario(room *Room, seed uint64) *Scenario { return core.NewScenario(room, seed) }

// XY constructs a position.
func XY(x, y float64) Vec2 { return geom.V(x, y) }

// OpenSpace returns an environment without walls (the paper's outdoor
// measurement rig).
func OpenSpace() *Room { return geom.Open() }

// ConferenceRoom returns the paper's Fig. 4 reflection-study room
// (9 m × 3.25 m, brick/glass/wood walls).
func ConferenceRoom() *Room { return geom.ConferenceRoom() }

// NewFlow creates a TCP flow between two MAC endpoints.
func NewFlow(sc *Scenario, fwd, rev transport.LinkSender, cfg FlowConfig) *Flow {
	return transport.NewFlow(sc.Sched, fwd, rev, cfg)
}

// Time is simulation time: a time.Duration since scenario start.
type Time = time.Duration

// NewIperf creates a sampling iperf session.
func NewIperf(sc *Scenario, fwd, rev transport.LinkSender, cfg FlowConfig, interval Time) *Iperf {
	return transport.NewIperf(sc.Sched, fwd, rev, cfg, interval)
}

// Experiments returns every registered table/figure reproduction in
// presentation order.
func Experiments() []Experiment { return experiments.All() }

// LookupExperiment returns the runner for an ID such as "T1" or "F9".
func LookupExperiment(id string) (Experiment, bool) { return experiments.Get(id) }

// DefaultExperimentOptions returns full-fidelity settings; Quick settings
// suit CI.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions returns reduced-cost settings.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// MeasurementHorn returns the paper's 25 dBi horn antenna model.
func MeasurementHorn() antenna.Horn { return antenna.MeasurementHorn() }

// OpenWaveguide returns the Vubiq's wide open-waveguide pattern.
func OpenWaveguide() antenna.Horn { return antenna.OpenWaveguide() }

// DefaultLinkBudget returns the calibrated consumer-grade link budget.
func DefaultLinkBudget() rf.LinkBudget { return rf.DefaultBudget() }

// CoexistLink is a planned directional link for interference prediction.
type CoexistLink = coexist.Link

// CoexistEndpoint is one radio of a planned link.
type CoexistEndpoint = coexist.Endpoint

// CoexistCoupling is a predicted pairwise interaction.
type CoexistCoupling = coexist.Coupling

// NewCoexistAnalyzer returns the §5-style geometric interference
// predictor (≤2 reflections) for the room.
func NewCoexistAnalyzer(room *Room) *coexist.Analyzer { return coexist.NewAnalyzer(room) }

// AssignChannels colors the conflict graph of the analyzed couplings
// onto the given number of channels.
func AssignChannels(nLinks int, cs []CoexistCoupling, channels int) ([]int, int) {
	return coexist.AssignChannels(nLinks, cs, channels)
}
