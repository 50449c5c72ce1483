package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"polyufc/internal/server"
)

// Paths, relative to the checkout root the harness runs from.
const (
	serveBin     = ".bench_build/polyufc-serve"
	outRoot      = "bench/out"
	platformFile = "platforms/2-socket-bdw.json"
)

// args renders the daemon flags of a boot; state lives under dir.
func (b boot) args(dir string) []string {
	var a []string
	if b.PlatformFile {
		a = append(a, "-platform-file", platformFile)
	}
	if b.CAS {
		a = append(a, "-cas-dir", filepath.Join(dir, "cas"))
	}
	if b.Journal {
		a = append(a, "-journal", filepath.Join(dir, "serve.jsonl"))
	}
	if b.Resume {
		a = append(a, "-resume")
	}
	if b.DriftOff {
		a = append(a, "-drift-threshold", "1e9")
	}
	return a
}

// config is the same boot as an in-process server.Config, with the flag
// defaults of cmd/polyufc-serve.
func (b boot) config(dir string) server.Config {
	cfg := server.DefaultConfig()
	if b.PlatformFile {
		cfg.PlatformFiles = []string{platformFile}
	}
	if b.CAS {
		cfg.CASDir = filepath.Join(dir, "cas")
	}
	if b.Journal {
		cfg.JournalPath = filepath.Join(dir, "serve.jsonl")
	}
	cfg.Resume = b.Resume
	if b.DriftOff {
		cfg.Drift.Threshold = 1e9
	}
	return cfg
}

// daemon is one running polyufc-serve child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *syncBuffer
	done   chan error
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// live tracks children so a harness error or signal leaves none behind.
var live struct {
	sync.Mutex
	m map[*daemon]bool
}

func killLive() {
	live.Lock()
	defer live.Unlock()
	for d := range live.m {
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	live.m = nil
}

// killOnSignal kills every child and exits when the harness is interrupted.
func killOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-c
		killLive()
		os.Exit(130)
	}()
}

var listenRE = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// healthTimeout is how long a booted daemon has to answer 200 on /healthz.
const healthTimeout = 5 * time.Second

// startDaemon boots the real binary on a free port (the kernel picks it;
// the daemon prints it) and waits until /healthz answers 200.
func startDaemon(args ...string) (*daemon, error) {
	cmd := exec.Command(serveBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The child dies with the harness even on a SIGKILL of the harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s (build it with bench/run.sh): %w", serveBin, err)
	}
	d := &daemon{cmd: cmd, stderr: &syncBuffer{}, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(io.TeeReader(pipe, d.stderr))
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	live.Lock()
	if live.m == nil {
		live.m = map[*daemon]bool{}
	}
	live.m[d] = true
	live.Unlock()

	fail := func(err error) (*daemon, error) {
		_ = cmd.Process.Kill()
		d.forget()
		return nil, fmt.Errorf("%w; daemon stderr:\n%s", err, d.stderr.String())
	}
	deadline := time.After(healthTimeout)
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case err := <-d.done:
		d.done <- err
		return fail(fmt.Errorf("daemon exited during boot: %v", err))
	case <-deadline:
		return fail(errors.New("daemon did not listen within 5 s"))
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
		select {
		case <-deadline:
			return fail(fmt.Errorf("daemon not healthy within 5 s: %v", err))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// forget waits for the child to end and drops it from the live set.
func (d *daemon) forget() error {
	err := <-d.done
	live.Lock()
	delete(live.m, d)
	live.Unlock()
	return err
}

// stop sends SIGTERM and waits for the drain; a daemon that has not exited
// cleanly within the drain budget is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	t := time.AfterFunc(15*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer t.Stop()
	if err := d.forget(); err != nil {
		return fmt.Errorf("daemon did not drain cleanly: %v; stderr:\n%s", err, d.stderr.String())
	}
	return nil
}

// procStat reads the child's CPU time (user + system) and peak resident
// set from /proc.
func (d *daemon) procStat() (cpu time.Duration, peakRSSMiB float64, err error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (USER_HZ is 100 on
	// every Linux ABI Go runs on).
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	cpu = time.Duration(ut+st) * (time.Second / 100)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, 0, err
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
