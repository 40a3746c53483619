package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: whether every output was
// correct, how many operations and checks ran and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cellStat is one layer cell: the median and median absolute deviation of
// its repeats.
type cellStat struct {
	Median  float64 `json:"median"`
	MAD     float64 `json:"mad"`
	Unit    string  `json:"unit"`
	Repeats int     `json:"repeats"`
}

// layerShare is the self time one span name accounts for in a traced run.
type layerShare struct {
	Spans    int     `json:"spans"`
	SelfMSOp float64 `json:"self_ms_per_op"`
	SharePct float64 `json:"share_pct"`
}

// record is the provenance line printed before the result line (and
// appended to -out when that names a file). -compare reads these.
type record struct {
	Kind     string `json:"kind"` // "e2e" or "layers"
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds,omitempty"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
	// Samples is the number of untraced operations behind the latency
	// percentiles; a tail percentile is meaningful only with ten or more
	// samples beyond it.
	Samples   int                `json:"samples,omitempty"`
	LatencyMS map[string]float64 `json:"latency_ms,omitempty"`
	// RefMS is the median time of the reference kernel during the window,
	// the unit of the end-to-end times; OpsPerS is the raw throughput with
	// the reference pauses left out.
	RefMS   float64 `json:"ref_ms,omitempty"`
	OpsPerS float64 `json:"ops_per_s,omitempty"`
	// Setups holds every set-up time of the run; setup_s is their median.
	Setups []float64 `json:"setups_s,omitempty"`
	// Checks lists the correctness checks that failed.
	Checks []string              `json:"failed_checks,omitempty"`
	Cells  map[string]cellStat   `json:"cells,omitempty"`
	Layers map[string]layerShare `json:"layers,omitempty"`
}

// host fingerprints the machine and build a record was measured with.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
}

// key identifies the machine: records with different keys are never
// compared. The commit is left out, since comparing commits is the point.
func (h host) key() string {
	return fmt.Sprintf("%s|cpus=%d|procs=%d|l2=%s|l3=%s|%s", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.L2, h.L3, h.GoVersion)
}

// readHost collects the fingerprint. The commit comes from the build's
// version-control stamp and reads "unknown" when the build had none.
func readHost() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified or data cache at the given
// level from sysfs ("unknown" where sysfs does not say).
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != fmt.Sprint(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if size, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// readRecords parses every record line of a file, skipping result lines
// and anything else that is not a record.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Kind != "" {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// writeRecord prints the record and then the result line to w, and also
// appends the record to out unless out is "-".
func writeRecord(w io.Writer, out string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if out != "-" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(f, string(line)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between closest ranks (q in [0,1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		v := median(s)
		return v, v
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
