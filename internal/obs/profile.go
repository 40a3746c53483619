package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile is the unified pprof flag pair of the CLIs: every tool
// registers the same -cpuprofile/-memprofile flags with the same
// semantics, so profiling a hot path works identically in bitsim and
// bitsweep (a Go benchmark takes go test's flags of the same names).
//
//	var prof obs.Profile
//	prof.Register(fs)
//	// after flag parsing:
//	if err := prof.Start(); err != nil { ... }
//	defer prof.Stop()
//
// Start is a no-op when neither flag was set; Stop is idempotent, stops
// the CPU profile, and writes the heap profile.
type Profile struct {
	cpuPath string
	memPath string
	cpuFile *os.File
}

// Register installs the -cpuprofile and -memprofile flags on fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.memPath, "memprofile", "", "write a pprof heap profile at the end of the run to this file")
}

// Start begins CPU profiling if -cpuprofile was given.
func (p *Profile) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: cpu profile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile if -memprofile was
// given. Safe to call multiple times; later calls are no-ops.
func (p *Profile) Stop() error {
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = err
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		path := p.memPath
		p.memPath = ""
		f, err := os.Create(path)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("obs: heap profile: %w", err)
			}
			return first
		}
		runtime.GC() // materialize the final live set before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = fmt.Errorf("obs: heap profile: %w", err)
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
