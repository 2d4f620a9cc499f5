package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartileSpread is the distance between the first and third quartile of vs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the "exclusive" method) — the
// spread an acceptance harness would compute from the same runs.
func quartileSpread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// runAA reads the benchmark's own noise floor: for every workload it runs
// two sets of n gated runs of this binary, alternating which set goes first
// and giving every run its own seed, then compares the sets metric by
// metric the way a regression gate would compare two commits. It reports
// whether every end-to-end pair stayed inside its bound; the timings are
// listed beside them with no bound to hold.
func runAA(w io.Writer, n int, o options) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(w, "aa:", err)
		return false
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	ok := true
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set runs first
				seed := o.seed + uint64(set*n+i)
				rep, err := runSelf(self, name, seed, o.seconds)
				if err != nil {
					fmt.Fprintf(w, "aa: %s seed %d: %v\n", name, seed, err)
					return false
				}
				for name, m := range rep.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
			fmt.Fprintf(w, "aa: %s pair %d/%d done\n", name, i+1, n)
		}
		fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s %8s %6s\n",
			"workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
		for _, m := range append(append([]metricSpec(nil), endToEnd...), timings...) {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(sets[0][m.Name]), quartileSpread(sets[1][m.Name])
			verdict := ""
			wide := sa
			if sb > wide {
				wide = sb
			}
			bound := "     -"
			if m.Bound > 0 { // the timings have none
				bound = fmt.Sprintf("%5.0f%%", 100*m.Bound)
				switch {
				case worse > m.Bound, m.Name != "setup_s" && wide > m.Bound:
					verdict, ok = "OUTSIDE BOUND", false
				case m.Name != "setup_s" && wide > m.Bound/3:
					verdict = "spread above a third of the bound"
				}
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %s %s\n",
				name, m.Name, a, b, 100*worse, 100*sa, 100*sb, bound, verdict)
		}
	}
	return ok
}

// runSelf runs one gated run of one workload in a child process and parses
// the report on the last line of its output.
func runSelf(self, workload string, seed uint64, seconds float64) (*report, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(int64(seed), 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0", "-timings")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("last line is not a report: %w", err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("run reported %d failed ops of %d", rep.Failed, rep.Attempted)
	}
	return &rep, nil
}
