// Command benchjson converts `go test -bench` text output (read on stdin)
// into a machine-readable JSON snapshot, the format of the repository's
// BENCH_*.json performance trajectory (see scripts/bench.sh), and compares
// two snapshots for regressions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -date 2026-07-26 > BENCH_2026-07-26.json
//	benchjson -compare BENCH_old.json BENCH_new.json
//	benchjson -compare -threshold 50 -filter 'RSEncode|Fig' old.json new.json
//
// Compare mode prints a per-benchmark delta table (ns/op and allocs/op) for
// every name present in both snapshots and exits nonzero when any benchmark
// matching -filter (default: the RSEncode and Fig benchmarks, the
// repository's guarded hot paths) slowed down, or allocates more objects
// per op, by more than -threshold percent (default 25). The allocation
// count repeats where wall time on a shared host does not, so it is the
// half of the gate that can hold a tight floor; an increase of fewer than
// allocNoiseFloor objects never fails. Benchmarks present in only one
// snapshot are reported as "new" or "removed" and never fail the run on
// their own — adding a benchmark must not break the CI gate — though losing
// every guarded benchmark still does, since that would mean the gate
// compared nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the emitted document.
type Snapshot struct {
	Date       string      `json:"date,omitempty"`
	Note       string      `json:"note,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	date := flag.String("date", "", "timestamp recorded in the snapshot")
	note := flag.String("note", "", "free-form note recorded in the snapshot")
	compare := flag.Bool("compare", false, "compare two snapshot files given as arguments instead of reading stdin")
	threshold := flag.Float64("threshold", 25, "compare: max tolerated ns/op or allocs/op regression in percent for guarded benchmarks")
	filter := flag.String("filter", `RSEncode|Fig`, "compare: regexp of benchmark names whose regressions fail the run")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two snapshot files")
			os.Exit(2)
		}
		os.Exit(compareSnapshots(flag.Arg(0), flag.Arg(1), *threshold, *filter))
	}

	snap := Snapshot{Date: *date, Note: *note, GoVersion: runtime.Version()}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			snap.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				snap.Benchmarks = append(snap.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gomaxprocsSuffix matches the "-N" GOMAXPROCS suffix the testing package
// appends to benchmark names when N != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// normalizeBenchName strips the GOMAXPROCS suffix so snapshots recorded on
// machines with different core counts still match up in compare mode
// ("BenchmarkRSEncode/k=8-4" and "BenchmarkRSEncode/k=8" are the same
// benchmark).
func normalizeBenchName(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// loadSnapshot reads one BENCH_*.json document.
func loadSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// allocNoiseFloor is the allocs/op increase below which the allocation gate
// stays quiet whatever the percentage: a -benchtime 1x smoke run charges
// one-time set-up (lazily built tables, pool warm-up) to its single
// iteration, which moves a 4-alloc benchmark by a few objects, while the
// regressions the gate exists for — an allocation per node, rank or group —
// add thousands.
const allocNoiseFloor = 64

// compareSnapshots loads two snapshots, prints the ns/op and allocs/op
// deltas for every benchmark present in both — plus "new"/"removed" rows
// for names present in only one — and returns the process exit code: 1 when
// a benchmark matching the filter regressed past the threshold on either
// metric, 0 otherwise. Only benchmarks present in both snapshots can fail
// the gate; new and removed ones are informational, so growing the suite
// never breaks CI.
func compareSnapshots(oldPath, newPath string, thresholdPct float64, filter string) int {
	re, err := regexp.Compile(filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad -filter:", err)
		return 2
	}
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldSnap.Benchmarks {
		oldBy[normalizeBenchName(b.Name)] = b
	}
	names := make([]string, 0, len(newSnap.Benchmarks))
	var added []string
	newBy := map[string]Benchmark{}
	for _, b := range newSnap.Benchmarks {
		name := normalizeBenchName(b.Name)
		newBy[name] = b
		if _, ok := oldBy[name]; ok {
			names = append(names, name)
		} else {
			added = append(added, name)
		}
	}
	var removed []string
	for _, b := range oldSnap.Benchmarks {
		name := normalizeBenchName(b.Name)
		if _, ok := newBy[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(removed)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: the snapshots share no benchmark names")
		return 2
	}
	fmt.Printf("%-40s %15s %15s %9s %12s %12s %9s %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta", "guard")
	failed := false
	guardedCompared := 0
	for _, name := range names {
		ob, nb := oldBy[name], newBy[name]
		deltaPct := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		// A snapshot recorded without -benchmem has no allocation count
		// (zero); only a count present on the old side can be gated.
		allocDelta := "-"
		allocRegressed := false
		if ob.AllocsPerOp > 0 {
			allocPct := float64(nb.AllocsPerOp-ob.AllocsPerOp) / float64(ob.AllocsPerOp) * 100
			allocDelta = fmt.Sprintf("%+.1f%%", allocPct)
			allocRegressed = allocPct > thresholdPct && nb.AllocsPerOp-ob.AllocsPerOp >= allocNoiseFloor
		}
		guarded := re.MatchString(name)
		verdict := ""
		if guarded {
			guardedCompared++
			verdict = "ok"
			switch slow := deltaPct > thresholdPct; {
			case slow && allocRegressed:
				verdict = fmt.Sprintf("REGRESSION (ns/op and allocs/op > %g%%)", thresholdPct)
			case slow:
				verdict = fmt.Sprintf("REGRESSION (ns/op > %g%%)", thresholdPct)
			case allocRegressed:
				verdict = fmt.Sprintf("REGRESSION (allocs/op > %g%%)", thresholdPct)
			}
			failed = failed || verdict != "ok"
		}
		fmt.Printf("%-40s %15.0f %15.0f %+8.1f%% %12d %12d %9s %s\n",
			name, ob.NsPerOp, nb.NsPerOp, deltaPct, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta, verdict)
	}
	for _, name := range added {
		fmt.Printf("%-40s %15s %15.0f %9s %12s %12d %9s new\n", name, "-", newBy[name].NsPerOp, "", "-", newBy[name].AllocsPerOp, "")
	}
	for _, name := range removed {
		fmt.Printf("%-40s %15.0f %15s %9s %12d %12s %9s removed\n", name, oldBy[name].NsPerOp, "-", "", oldBy[name].AllocsPerOp, "-", "")
	}
	// A gate that compared nothing is a disabled gate, not a passing one:
	// losing every guarded benchmark (rename, -bench filter drift) must be
	// loud. Losing a subset only warns, since partial runs are a normal way
	// to probe.
	for _, name := range removed {
		if re.MatchString(name) {
			fmt.Fprintf(os.Stderr, "benchjson: warning: guarded benchmark %s missing from %s\n", name, newPath)
		}
	}
	if guardedCompared == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark matching guard filter %q was compared — the regression gate checked nothing\n", filter)
		return 2
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: guarded benchmarks regressed beyond %g%% (filter %q)\n", thresholdPct, filter)
		return 1
	}
	return 0
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkRSEncode/k=8-4  24  45439277 ns/op  184.61 MB/s  8388848 B/op  10 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "MB/s":
			b.MBPerS = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, b.NsPerOp > 0
}
