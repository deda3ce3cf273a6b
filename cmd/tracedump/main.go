// Command tracedump captures and prints frame-level traces of simulated
// 60 GHz links, in the style of the paper's oscilloscope figures
// (Figs. 8, 15, 21): one line per overheard frame with timing, type,
// amplitude and collision annotations, plus an ASCII envelope strip.
//
// Usage:
//
//	tracedump wigig            # a loaded D5000 link (Fig. 8)
//	tracedump wihd             # a WiHD video link (Fig. 15)
//	tracedump both             # the Fig. 6 interference mix (Fig. 21)
//	tracedump -ms 2 wigig      # longer excerpt
//	tracedump -o cap.vubiq wigig   # also save the binary capture
//	tracedump read cap.vubiq       # display a saved capture
//
// Exit codes for "read" distinguish how healthy the capture was:
//
//	0  clean capture, footer verified
//	1  corrupt (unreadable header, damaged record, or I/O error)
//	3  truncated but recovered: the intact prefix was printed; only the
//	   torn tail (and footer) from a crash or kill was lost
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/sniffer"
)

func main() {
	ms := flag.Float64("ms", 1, "trace excerpt length in milliseconds")
	seed := flag.Uint64("seed", 1, "scenario seed")
	outFile := flag.String("o", "", "save the captured excerpt to this binary trace file")
	flag.Parse()
	mode := "wigig"
	if flag.NArg() > 0 {
		mode = strings.ToLower(flag.Arg(0))
	}
	if mode == "read" {
		if flag.NArg() < 2 {
			fatal("tracedump read <file>")
		}
		os.Exit(readAndPrint(flag.Arg(1)))
	}

	sc := repro.NewScenario(repro.OpenSpace(), *seed)
	var sn *repro.Sniffer
	switch mode {
	case "wigig":
		link := sc.AddWiGigLink(
			repro.WiGigConfig{Name: "dock", Pos: repro.XY(0, 0)},
			repro.WiGigConfig{Name: "laptop", Pos: repro.XY(2, 0)},
		)
		if !link.WaitAssociated(sc.Sched, time.Second) {
			fatal("association failed")
		}
		flow := repro.NewFlow(sc, link.Station, link.Dock, repro.FlowConfig{PacingBps: 600e6})
		flow.Start()
		sn = sc.AddSniffer("vubiq", repro.XY(1, 0.4), repro.OpenWaveguide(), -math.Pi/2)
	case "wihd":
		sys := sc.AddWiHD(
			repro.WiHDConfig{Name: "hdmi-tx", Pos: repro.XY(0, 0)},
			repro.WiHDConfig{Name: "hdmi-rx", Pos: repro.XY(8, 0)},
		)
		if !sys.WaitPaired(sc.Sched, time.Second) {
			fatal("pairing failed")
		}
		sn = sc.AddSniffer("vubiq", repro.XY(1, 0.4), repro.OpenWaveguide(), -math.Pi/2)
	case "both":
		link := sc.AddWiGigLink(
			repro.WiGigConfig{Name: "dock", Pos: repro.XY(0, 0), BoresightDeg: 90},
			repro.WiGigConfig{Name: "laptop", Pos: repro.XY(0, 6), BoresightDeg: -90},
		)
		if !link.WaitAssociated(sc.Sched, 2*time.Second) {
			fatal("association failed")
		}
		sys := sc.AddWiHD(
			repro.WiHDConfig{Name: "hdmi-tx", Pos: repro.XY(0.5, -0.3)},
			repro.WiHDConfig{Name: "hdmi-rx", Pos: repro.XY(3.0, 7.3)},
		)
		if !sys.WaitPaired(sc.Sched, 2*time.Second) {
			fatal("pairing failed")
		}
		flow := repro.NewFlow(sc, link.Station, link.Dock, repro.FlowConfig{PacingBps: 400e6})
		flow.Start()
		sn = sc.AddSniffer("vubiq", repro.XY(0.6, 0.7), repro.OpenWaveguide(), math.Pi/2)
	default:
		fatal(fmt.Sprintf("unknown mode %q (wigig|wihd|both)", mode))
	}

	// Warm up, then capture the excerpt. With -o the capture streams to
	// disk through the trace writer as frames are overheard: records
	// hit the file incrementally, and a crash mid-run leaves a
	// recoverable prefix instead of nothing.
	sc.Run(100 * time.Millisecond)
	sn.Reset()
	var tw *sniffer.TraceWriter
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err.Error())
		}
		tw, err = sniffer.NewTraceWriter(f)
		if err != nil {
			fatal(err.Error())
		}
		defer f.Close()
		sn.Sink = tw
	}
	dur := time.Duration(*ms * float64(time.Millisecond))
	from := sc.Now()
	sc.Run(dur)

	obs := sn.Window(from, sc.Now())
	if tw != nil {
		if err := tw.Close(); err != nil {
			fatal(err.Error())
		}
		st := tw.Stats()
		fmt.Printf("streamed %d records (%d bytes) to %s\n", st.Records, st.Bytes, *outFile)
		if st.Drops > 0 {
			fmt.Printf("warning: %d observations dropped as invalid\n", st.Drops)
		}
	}
	fmt.Printf("%d frames in %.1f ms:\n", len(obs), *ms)
	fmt.Println("  t(µs)   dur(µs)  type        src  amp(V)  flags")
	for _, o := range obs {
		flags := ""
		if o.Retry {
			flags += " retry"
		}
		if o.Collided {
			flags += " collided"
		}
		if o.MPDUs > 1 {
			flags += fmt.Sprintf(" x%d", o.MPDUs)
		}
		fmt.Printf("%8.1f %8.2f  %-11s %3d  %6.3f %s\n",
			float64(o.Start-from)/float64(time.Microsecond),
			float64(o.Duration())/float64(time.Microsecond),
			o.Type, o.Src, o.AmplitudeV, flags)
	}
	fmt.Println()
	printEnvelope(sn, from, sc.Now())
}

// printEnvelope renders the undersampled scope view (cf. Figs. 8/15/21).
func printEnvelope(sn *repro.Sniffer, from, to time.Duration) {
	env := sn.Envelope(from, to, 2e6)
	if len(env) == 0 {
		return
	}
	peak := 0.0
	for _, v := range env {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		fmt.Println("(idle)")
		return
	}
	const rows = 8
	cols := len(env)
	if cols > 120 {
		// Downsample to the terminal width, keeping per-bucket maxima.
		buckets := make([]float64, 120)
		for i, v := range env {
			b := i * 120 / cols
			if v > buckets[b] {
				buckets[b] = v
			}
		}
		env = buckets
		cols = 120
	}
	for r := rows; r > 0; r-- {
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			if env[c]/peak >= float64(r)/rows {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		fmt.Printf("|%s|\n", line)
	}
	fmt.Printf("0%sms\n", strings.Repeat(" ", cols-3))
}

// readAndPrint iterates a saved capture record by record — constant
// memory regardless of capture size — and returns the process exit
// code: 0 for a clean capture, 1 for corruption, 3 for a truncated but
// recovered prefix (see the package comment).
func readAndPrint(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fatal(err.Error())
	}
	defer f.Close()
	tr, err := sniffer.NewTraceReader(f)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("records in %s:\n", path)
	fmt.Println("  t(µs)   dur(µs)  type        src  power(dBm)  flags")
	for {
		o, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err.Error())
		}
		flags := ""
		if o.Retry {
			flags += " retry"
		}
		if o.Collided {
			flags += " collided"
		}
		fmt.Printf("%8.1f %8.2f  %-11s %3d  %9.1f %s\n",
			float64(o.Start)/float64(time.Microsecond),
			float64(o.Duration())/float64(time.Microsecond),
			o.Type, o.Src, o.PowerDBm, flags)
	}
	fmt.Printf("%d records\n", tr.Records())
	if tr.Truncated() {
		fmt.Println("warning: capture is truncated (crash-recovered prefix; the trailing record and footer were lost)")
		return 3
	}
	return 0
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "tracedump:", msg)
	os.Exit(1)
}
