package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count (VmHWM) at the current resident set.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// liveHeapMB is the heap the last garbage collection found live, in MiB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtSample is a runtime/metrics reading taken around a timed pass.
type rtSample struct{ gcCPU, totalCPU, allocBytes float64 }

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			return m.Value.Float64()
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: val(s[0]), totalCPU: val(s[1]), allocBytes: val(s[2])}
}

// runtimeDelta reports the GC share of CPU and the MiB allocated between
// two samples.
func runtimeDelta(a, b rtSample) (gcFrac, allocMB float64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return gcFrac, (b.allocBytes - a.allocBytes) / (1 << 20)
}

// provenance is the host fingerprint and build identity printed with
// every result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Recorded   string `json:"recorded"`
}

func hostProvenance(workload string, seed uint64, seconds int, trace bool) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     vcsRevision(),
		SourceHash: sourceHash("."),
		Recorded:   time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git work tree; "unknown" otherwise.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root (the
// repository checkout), so a result names the code it measured even
// where no git metadata exists. Build outputs are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
