package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The reference kernel is fixed work owned by the benchmark: NumCPU
// goroutines each run xorshift steps with one load per step from a table
// twice the size of a 2 MiB L2, and the kernel ends when the last one does.
// The timed window pauses every refEvery to run it once. Its time tracks
// how fast the host runs this process at that moment, so the end-to-end
// times are reported in units of it: on a shared host whose cores slow down
// with the neighbours' load, the ratio moves with the program, not with the
// neighbours. No change to the program can change the kernel.

const (
	refEvery      = 250 * time.Millisecond
	refTableWords = 1 << 19 // 4 MiB
	refSteps      = 1 << 20 // per goroutine
)

var (
	refTableOnce sync.Once
	refTable     []uint64
	refSink      atomic.Uint64
)

// refKernel runs the reference kernel once and returns its wall time.
func refKernel() time.Duration {
	refTableOnce.Do(func() {
		refTable = make([]uint64, refTableWords)
		for i := range refTable {
			refTable[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
	})
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g)*0x2545f4914f6cdd1d + 1
			var acc uint64
			for i := 0; i < refSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				acc += refTable[x&(refTableWords-1)]
			}
			refSink.Add(acc)
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// rssMB is this process's resident memory now, from /proc/self/statm.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, os.ErrInvalid
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
