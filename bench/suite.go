package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runEnv is recorded before each workload so a result can be read against
// the machine state it was measured in.
type runEnv struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	LoadAvg1  string `json:"loadavg_1min"`
}

func currentEnv() runEnv {
	env := runEnv{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown", LoadAvg1: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg1 = strings.Fields(string(data))[0]
	}
	return env
}

// setEntry is one workload's result within a set.
type setEntry struct {
	Workload string `json:"workload"`
	Env      runEnv `json:"env"`
	result
}

// runAll runs every workload as the driver would — this binary again, one
// process per workload — `repeat` times, prints each run, and with more
// than one set compares them metric by metric against the bounds.
func runAll(seed int64, seconds float64, trace, repeat int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [][]setEntry
	for s := 0; s < repeat; s++ {
		var set []setEntry
		for _, w := range workloadList {
			env := currentEnv()
			fmt.Printf("--- set %d/%d: %s  (nproc %d, %s, commit %s, load %s)\n",
				s+1, repeat, w.name, env.NProc, env.GoVersion, env.Commit, env.LoadAvg1)
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			e := setEntry{Workload: w.name, Env: env}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &e.result); err != nil {
				return fmt.Errorf("%s: bad result line: %w", w.name, err)
			}
			if !e.Correct {
				return fmt.Errorf("%s: %d of %d responses failed", w.name, e.Failed, e.Attempted)
			}
			set = append(set, e)
		}
		sets = append(sets, set)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(map[string]any{"seed": seed, "seconds": seconds, "trace": trace, "sets": sets}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if repeat > 1 && trace == 0 {
		return compareSets(sets)
	}
	return nil
}

// compareSets prints, per workload and end-to-end metric, how far each
// later set is from the first in the metric's bad direction, next to its
// bound; any excess is an error.
func compareSets(sets [][]setEntry) error {
	var over []string
	fmt.Printf("--- sets compared with set 1 (positive = worse)\n")
	for wi, first := range sets[0] {
		for _, d := range endToEnd {
			base := first.Metrics[d.Name].Value
			for s := 1; s < len(sets); s++ {
				worse := (sets[s][wi].Metrics[d.Name].Value - base) / base
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > d.Bound {
					verdict = "OVER"
					over = append(over, first.Workload+"/"+d.Name)
				}
				fmt.Printf("  %-16s %-16s set %d %+7.2f%%  bound %4.0f%%  %s\n", first.Workload, d.Name, s+1, 100*worse, 100*d.Bound, verdict)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("sets disagree beyond the bound on %v", over)
	}
	return nil
}

// genExpected regenerates the expected tables: one daemon, every request
// of the universe once, in group order. Only a change that is meant to
// alter responses should run it.
func genExpected() error {
	d, err := startDaemon(boot{PlatformFile: true, DriftOff: true}.args(outRoot)...)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient()
	c.base = d.base
	u := universe()
	files := map[string]*bytes.Buffer{}
	for _, group := range sortedGroups(u) {
		buf := files[expectedFile(group)]
		if buf == nil {
			buf = &bytes.Buffer{}
			files[expectedFile(group)] = buf
		}
		var digests []string
		for _, r := range u[group] {
			status, body, _, err := c.post(r.Path, r.Body)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("POST %s %s: status %d err %v: %s", r.Path, r.Body, status, err, body)
			}
			digests = append(digests, digestOf(r, body))
		}
		fmt.Fprintf(buf, "%s\t%s\n", group, strings.Join(digests, " "))
	}
	if err := os.MkdirAll(expectedDir, 0o755); err != nil {
		return err
	}
	for name, buf := range files {
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", name, buf.Len())
	}
	return nil
}
