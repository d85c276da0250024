// Package pmake reimplements Sprite's parallel make: a dependency graph
// whose independent out-of-date targets are rebuilt in parallel on idle
// hosts using exec-time migration (remote invocation with no VM transfer).
//
// The compile jobs are synthetic but exercise the real code paths the
// thesis identifies as the bottleneck: every job opens its sources through
// the shared file system, searches include paths (server name lookups),
// and writes its object file back — so the file server, not the CPUs,
// eventually limits the speedup, as in the thesis's measurements.
package pmake

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/rpc"
)

// Errors reported by pmake.
var (
	// ErrCycle is returned when the dependency graph has a cycle.
	ErrCycle = errors.New("pmake: dependency cycle")
	// ErrUnknownDep is returned when a target depends on an undefined name.
	ErrUnknownDep = errors.New("pmake: unknown dependency")
	// ErrJobFailed is returned when a build job exits nonzero.
	ErrJobFailed = errors.New("pmake: job failed")
)

// Job describes the work to produce one target.
type Job struct {
	// CPU is the pure compute time of the job.
	CPU time.Duration
	// Inputs are files read in full.
	Inputs []string
	// LookupPaths are stat-ed one by one (include-path searching), the
	// dominant source of file-server CPU load.
	LookupPaths []string
	// Output is the file written (created/truncated).
	Output string
	// OutputSize is the number of bytes written to Output.
	OutputSize int
	// HeapPages sizes the job's working set.
	HeapPages int
}

// Target is one node in the dependency graph. A nil Job marks a source.
type Target struct {
	Name string
	Deps []string
	Job  *Job
}

// Makefile is a dependency graph.
type Makefile struct {
	targets map[string]*Target
	names   []string
}

// NewMakefile returns an empty graph.
func NewMakefile() *Makefile {
	return &Makefile{targets: make(map[string]*Target)}
}

// AddSource declares a source file (always up to date).
func (m *Makefile) AddSource(name string) {
	m.add(&Target{Name: name})
}

// AddTarget declares a buildable target.
func (m *Makefile) AddTarget(name string, deps []string, job *Job) {
	m.add(&Target{Name: name, Deps: deps, Job: job})
}

func (m *Makefile) add(t *Target) {
	if _, exists := m.targets[t.Name]; !exists {
		m.names = append(m.names, t.Name)
	}
	m.targets[t.Name] = t
}

// BuildOrder returns the buildable targets in a valid topological order,
// or ErrCycle / ErrUnknownDep.
func (m *Makefile) BuildOrder() ([]*Target, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(m.targets))
	var order []*Target
	var visit func(name string) error
	visit = func(name string) error {
		t, ok := m.targets[name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownDep, name)
		}
		switch state[name] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("%w involving %s", ErrCycle, name)
		}
		state[name] = visiting
		for _, d := range t.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[name] = done
		if t.Job != nil {
			order = append(order, t)
		}
		return nil
	}
	names := make([]string, len(m.names))
	copy(names, m.names)
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Options configures an execution.
type Options struct {
	// Hosts are remote hosts to run jobs on (one job at a time each).
	Hosts []rpc.HostID
	// LocalJobs is the number of concurrent jobs on the invoking host
	// (default 1).
	LocalJobs int
	// Binary is the compiler binary path (must be seeded; default
	// "/bin/cc").
	Binary string
	// Force rebuilds everything regardless of output existence.
	Force bool
}

// Result summarizes an execution.
type Result struct {
	// Makespan is total wall time of the build.
	Makespan time.Duration
	// Jobs is the number of jobs executed; RemoteJobs ran off-host.
	Jobs       int
	RemoteJobs int
	// Skipped counts up-to-date targets that were not rebuilt.
	Skipped int
	// TotalJobCPU sums the pure compute time of the executed jobs.
	TotalJobCPU time.Duration
}

// Run executes the makefile from inside a process (the pmake process
// itself). Remote jobs are dispatched with fork + exec-time migration.
func Run(ctx *core.Ctx, mf *Makefile, opts Options) (*Result, error) {
	order, err := mf.BuildOrder()
	if err != nil {
		return nil, err
	}
	if opts.LocalJobs <= 0 {
		opts.LocalJobs = 1
	}
	if opts.Binary == "" {
		opts.Binary = "/bin/cc"
	}
	start := ctx.Now()
	res := &Result{}

	// Out-of-date analysis: a target builds if forced, its output is
	// missing, any dependency's modification time is newer than the
	// output's, or any dependency is itself being rebuilt.
	pending := make(map[string]*Target)
	remainingDeps := make(map[string]int)
	dependents := make(map[string][]*Target)
	for _, t := range order {
		if !opts.Force {
			stale, err := isStale(ctx, t, pending)
			if err != nil {
				return nil, err
			}
			if !stale {
				res.Skipped++
				continue
			}
		}
		pending[t.Name] = t
	}
	// Dependency counting walks order, not the pending map: the dependents
	// lists seed the ready queue as jobs finish, so their order decides
	// which target grabs which host. Iterating the map here would make the
	// schedule — and the reproduced pmake tables — a map-order coin flip.
	for _, t := range order {
		if pending[t.Name] == nil {
			continue
		}
		n := 0
		for _, d := range t.Deps {
			if _, isPending := pending[d]; isPending {
				n++
				dependents[d] = append(dependents[d], t)
			}
		}
		remainingDeps[t.Name] = n
	}

	// Slot pool: one per remote host plus LocalJobs local slots. NoHost
	// marks a local slot.
	var free []rpc.HostID
	for i := 0; i < opts.LocalJobs; i++ {
		free = append(free, rpc.NoHost)
	}
	free = append(free, opts.Hosts...)

	ready := make([]*Target, 0, len(pending))
	for _, t := range order {
		if pending[t.Name] != nil && remainingDeps[t.Name] == 0 {
			ready = append(ready, t)
		}
	}
	running := make(map[core.PID]*jobSlot)
	launched := 0

	for launched < len(pending) || len(running) > 0 {
		// Fill free slots with ready targets.
		for len(ready) > 0 && len(free) > 0 {
			t := ready[0]
			ready = ready[1:]
			host := free[0]
			free = free[1:]
			child, err := launchJob(ctx, t, host, opts.Binary)
			if err != nil {
				return nil, err
			}
			running[child.PID()] = &jobSlot{target: t, host: host}
			launched++
			res.Jobs++
			res.TotalJobCPU += t.Job.CPU
			if host != rpc.NoHost {
				res.RemoteJobs++
			}
		}
		if len(running) == 0 {
			break
		}
		pid, status, err := ctx.Wait()
		if err != nil {
			return nil, err
		}
		slot, ok := running[pid]
		if !ok {
			continue // not one of ours
		}
		delete(running, pid)
		free = append(free, slot.host)
		if status != 0 {
			return nil, fmt.Errorf("%w: %s exited %d", ErrJobFailed, slot.target.Name, status)
		}
		for _, dep := range dependents[slot.target.Name] {
			remainingDeps[dep.Name]--
			if remainingDeps[dep.Name] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	res.Makespan = ctx.Now() - start
	return res, nil
}

type jobSlot struct {
	target *Target
	host   rpc.HostID
}

// isStale reports whether t must be rebuilt: missing output, a newer
// dependency, or a dependency already scheduled for rebuild. The order
// parameter walk guarantees dependencies are decided before dependents.
func isStale(ctx *core.Ctx, t *Target, pending map[string]*Target) (bool, error) {
	_, outTime, err := ctx.StatTimes(t.Job.Output)
	if err != nil {
		return true, nil // no output yet
	}
	for _, d := range t.Deps {
		if _, rebuilding := pending[d]; rebuilding {
			return true, nil
		}
		_, depTime, err := ctx.StatTimes(d)
		if err != nil {
			return true, nil // dependency unknown: rebuild defensively
		}
		if depTime > outTime {
			return true, nil
		}
	}
	return false, nil
}

// launchJob forks a worker for the target, locally or via remote exec.
func launchJob(ctx *core.Ctx, t *Target, host rpc.HostID, binary string) (*core.Process, error) {
	job := t.Job
	cfg := core.ProcConfig{
		Binary:     binary,
		CodePages:  16,
		HeapPages:  job.HeapPages,
		StackPages: 2,
		Args:       []string{t.Name},
	}
	prog := jobProgram(job)
	if host == rpc.NoHost {
		return ctx.Fork("cc-"+t.Name, prog, cfg)
	}
	return ctx.ForkRemoteExec("cc-"+t.Name, prog, cfg, host)
}

// jobProgram builds the worker program for one job: search includes, read
// inputs, compute, write the output.
func jobProgram(job *Job) core.Program {
	return func(ctx *core.Ctx) error {
		for _, p := range job.LookupPaths {
			if _, err := ctx.Stat(p); err != nil {
				return fmt.Errorf("lookup %s: %w", p, err)
			}
		}
		for _, in := range job.Inputs {
			fd, err := ctx.Open(in, fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			for {
				n, err := ctx.ReadCount(fd, 16*1024)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
			}
			if err := ctx.Close(fd); err != nil {
				return err
			}
		}
		if job.HeapPages > 0 {
			if err := ctx.TouchHeap(0, job.HeapPages, true); err != nil {
				return err
			}
		}
		if err := ctx.Compute(job.CPU); err != nil {
			return err
		}
		if job.Output != "" {
			fd, err := ctx.Open(job.Output, fs.WriteMode, fs.OpenOptions{Create: true, Truncate: true})
			if err != nil {
				return err
			}
			for remaining := job.OutputSize; remaining > 0; remaining -= 16 * 1024 {
				if _, err := ctx.WriteZeros(fd, min(remaining, 16*1024)); err != nil {
					return err
				}
			}
			if err := ctx.Close(fd); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}
}

// ProjectParams sizes a synthetic compile project.
type ProjectParams struct {
	// Units is the number of compilation units.
	Units int
	// CompileCPU is the mean compute time per unit; CPUJitter is the
	// +/- uniform fraction applied per unit.
	CompileCPU time.Duration
	CPUJitter  float64
	// SrcBytes, HdrBytes, ObjBytes size the files.
	SrcBytes int
	HdrBytes int
	ObjBytes int
	// Headers is the number of shared header files; LookupsPerUnit is how
	// many include-path probes each unit performs.
	Headers        int
	LookupsPerUnit int
	// HeadersRead is how many headers each unit actually reads.
	HeadersRead int
	// LinkCPU and BinaryBytes describe the final sequential link.
	LinkCPU     time.Duration
	BinaryBytes int
	// HeapPages is each job's working set.
	HeapPages int
	// Dir is the source tree root (default "/src").
	Dir string
}

// DefaultProjectParams approximates the thesis's 24-unit builds.
func DefaultProjectParams() ProjectParams {
	return ProjectParams{
		Units:          24,
		CompileCPU:     4 * time.Second,
		CPUJitter:      0.25,
		SrcBytes:       24 * 1024,
		HdrBytes:       8 * 1024,
		ObjBytes:       20 * 1024,
		Headers:        16,
		LookupsPerUnit: 80,
		HeadersRead:    4,
		LinkCPU:        6 * time.Second,
		BinaryBytes:    400 * 1024,
		HeapPages:      32,
		Dir:            "/src",
	}
}

// SyntheticProject seeds the source tree into the cluster's FS and returns
// the corresponding makefile.
func SyntheticProject(c *core.Cluster, rng *rand.Rand, p ProjectParams) (*Makefile, error) {
	if p.Dir == "" {
		p.Dir = "/src"
	}
	mf := NewMakefile()
	headers := make([]string, p.Headers)
	for i := range headers {
		headers[i] = fmt.Sprintf("%s/h%d.h", p.Dir, i)
		if err := c.SeedBinary(headers[i], p.HdrBytes); err != nil {
			return nil, err
		}
		mf.AddSource(headers[i])
	}
	// Every unit searches the same include path; jobs only read it.
	lookups := make([]string, p.LookupsPerUnit)
	for l := range lookups {
		lookups[l] = headers[l%len(headers)]
	}
	read := min(p.HeadersRead, len(headers))
	objs := make([]string, 0, p.Units)
	for i := 0; i < p.Units; i++ {
		src := fmt.Sprintf("%s/u%d.c", p.Dir, i)
		obj := fmt.Sprintf("%s/u%d.o", p.Dir, i)
		if err := c.SeedBinary(src, p.SrcBytes); err != nil {
			return nil, err
		}
		mf.AddSource(src)
		inputs := append(make([]string, 0, 1+read), src)
		deps := append(make([]string, 0, 1+read), src)
		for h := 0; h < read; h++ {
			hdr := headers[(i+h)%len(headers)]
			inputs = append(inputs, hdr)
			deps = append(deps, hdr)
		}
		cpu := p.CompileCPU
		if p.CPUJitter > 0 && rng != nil {
			f := 1 + p.CPUJitter*(2*rng.Float64()-1)
			cpu = time.Duration(float64(cpu) * f)
		}
		mf.AddTarget(obj, deps, &Job{
			CPU:         cpu,
			Inputs:      inputs,
			LookupPaths: lookups,
			Output:      obj,
			OutputSize:  p.ObjBytes,
			HeapPages:   p.HeapPages,
		})
		objs = append(objs, obj)
	}
	mf.AddTarget(p.Dir+"/prog", objs, &Job{
		CPU:        p.LinkCPU,
		Inputs:     objs,
		Output:     p.Dir + "/prog",
		OutputSize: p.BinaryBytes,
		HeapPages:  p.HeapPages,
	})
	return mf, nil
}
