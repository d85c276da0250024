// Command benchmark is the repository's one performance harness: five named
// workloads, each run as a closed loop with one client (a fresh cluster is
// simulated per iteration; the next starts when the previous has finished
// and been verified), reporting both clocks side by side and never mixed —
// virtual time, which is what the paper's claims are about, and host time
// and allocations, which are what simulating costs.
//
//	go run ./benchmark                         all workloads, 100 iterations each
//	go run ./benchmark -workload mig_bulk -trace 1 -trace-out spans.json
//	go run ./benchmark -ladder                 the per-layer ladder alone
//	go run ./benchmark -out a.json             write the run as JSON
//	go run ./benchmark -compare a.json b.json  judge b against a by BENCHMARK.json's bounds
//
// The performance driver runs it as
// `bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1` and
// reads the last line of standard output. README.md in this directory says
// why each workload and metric was chosen and how they interact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// rungSeconds is how long each ladder rung measures.
const rungSeconds = 1.0

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		//spritelint:allow simtaint an error from writing results may quote measured host times; operator diagnostics, never simulation state
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// run is main without the process: it returns the exit code, and the error
// to report when the code is not about the measurements themselves.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workloadName = fl.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed         = fl.Int64("seed", 42, "seed of the generated inputs, core.Options.Seed and the pmake project")
		iters        = fl.Int("iters", 100, "measured iterations per workload (when -seconds is 0)")
		seconds      = fl.Float64("seconds", 0, "measure each workload for this many seconds instead of -iters")
		trace        = fl.Int("trace", 0, "1 = traced run: alternate untraced and traced iterations and report the per-layer metrics")
		traceOut     = fl.String("trace-out", "", "write the last traced iteration's spans as JSON here (implies -trace 1)")
		ladderOnly   = fl.Bool("ladder", false, "run only the per-layer ladder")
		out          = fl.String("out", "", "write the run's results as JSON here")
		compare      = fl.Bool("compare", false, "compare two result files (each may be a comma-separated set of runs): -compare a.json b.json")
		spec         = fl.String("spec", "BENCHMARK.json", "metric names and bounds for -compare")
		cpuProfile   = fl.String("cpuprofile", "", "write a CPU profile of the whole run here")
		memProfile   = fl.String("memprofile", "", "write an allocation profile here at exit")
	)
	if err := fl.Parse(args); err != nil {
		return 2, nil // the flag set has already said why
	}
	if *compare {
		if fl.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two result files, got %d", fl.NArg())
		}
		worse, err := compareFiles(stdout, *spec, fl.Arg(0), fl.Arg(1))
		if err != nil || worse {
			return 1, err
		}
		return 0, nil
	}
	if fl.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	var selected []*workloadDef
	if *workloadName == "all" {
		selected = workloads
	} else if w := findWorkload(*workloadName); w != nil {
		selected = []*workloadDef{w}
	} else {
		return 2, fmt.Errorf("unknown workload %q (want all or one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
	}
	if *traceOut != "" {
		*trace = 1
	}
	if *seconds <= 0 && *iters < 1+*trace {
		return 2, fmt.Errorf("-iters %d: need at least %d measured iterations", *iters, 1+*trace)
	}

	defer capProcs()()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return 1, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return 1, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close() // a truncated profile shows when pprof opens it
		}()
	}

	doc := &resultDoc{Format: resultFormat, Seed: *seed, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var traces []traceFile
	if !*ladderOnly {
		for _, w := range selected {
			m := measure(w, w.full, *seed, measureOpts{iters: *iters, seconds: *seconds, trace: *trace == 1})
			res := m.result()
			doc.Results = append(doc.Results, res)
			if m.lastTrace != nil {
				traces = append(traces, traceFile{
					Workload: w.name, Seed: *seed, Spans: m.lastTrace,
					Note: "spans of the last traced iteration; wall times are meaningful on build and run only",
				})
			}
		}
	}
	if *ladderOnly || *trace == 1 {
		doc.Ladder = runLadder(rungSeconds)
		for _, res := range doc.Results {
			res.addLadder(doc.Ladder)
		}
	}
	//spritelint:allow simtaint printing measured host times and allocations is what this command is for
	printDoc(stdout, doc)

	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, traces); err != nil {
			return 1, err
		}
	}
	if *out != "" {
		if err := doc.write(*out); err != nil {
			return 1, err
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return 1, err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
	}
	failed := 0
	for _, res := range doc.Results {
		failed += res.Failed
	}
	for _, r := range doc.Ladder {
		if r.Err != "" {
			failed++
		}
	}
	if len(doc.Results) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with the run's verdict and metrics.
		if err := doc.Results[0].writeDriverLine(stdout, *trace == 1); err != nil {
			return 1, err
		}
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// capProcs pins GOMAXPROCS to min(nproc, 2) — the reference box has two
// cores and the parallel-kernel workloads and rungs use two workers — and
// returns the function that restores it.
func capProcs() (restore func()) {
	prev := runtime.GOMAXPROCS(0)
	if runtime.NumCPU() >= parWorkers {
		runtime.GOMAXPROCS(parWorkers)
	}
	return func() { runtime.GOMAXPROCS(prev) }
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
