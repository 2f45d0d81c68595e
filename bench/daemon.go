package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The system under test: the real cmd/rexd binary, built from the
// commit the bench sits in and run as a child process.

// repoRoot finds the rex module root from the working directory: the
// bench is started either there (go run ./bench style wrappers) or in
// bench/ itself (go run -C bench .).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rexd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/rexd not found from the working directory: run from the repository root or from bench/")
}

// buildRexd compiles cmd/rexd into <root>/.bench_build and returns the
// binary's path. The go build cache makes the second call cheap; the
// time is never part of setup_s.
func buildRexd(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "rexd")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/rexd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rexd: %v\n%s", err, b)
	}
	return out, nil
}

// daemon is one running rexd.
type daemon struct {
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	started time.Time // just before exec
	bgp     string    // -listen
	http    string    // -serve-addr
	metrics string    // -metrics-addr, traced runs only
	waited  chan struct{}
}

// freeAddrs reserves n distinct loopback ports by binding and closing
// them. Another process could take one before rexd binds it; rexd then
// fails to start and the run fails loudly rather than measuring wrong.
func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// startDaemon execs rexd with the only flags the bench may pass (the
// analysis defaults are what users run and what later changes may
// alter) and returns without waiting for it to listen.
func startDaemon(bin, journalDir string, snapEvery time.Duration, withMetrics bool) (*daemon, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	d := &daemon{bgp: addrs[0], http: addrs[1], waited: make(chan struct{})}
	args := []string{
		"-listen", d.bgp, "-serve-addr", d.http, "-journal-dir", journalDir,
		"-snapshot-every", snapEvery.String(), "-scan-every", "0",
		"-log-level", "warn", "-spike-k", "-1",
	}
	if withMetrics {
		d.metrics = addrs[2]
		args = append(args, "-metrics-addr", d.metrics)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.waited)
	}()
	return d, nil
}

// awaitListening polls the BGP port until a TCP connect succeeds and
// returns that connection and the time since exec — cold-start latency
// including whatever journal recovery the start had to do.
func (d *daemon) awaitListening(timeout time.Duration) (net.Conn, time.Duration, error) {
	deadline := d.started.Add(timeout)
	for {
		c, err := net.Dial("tcp", d.bgp)
		if err == nil {
			return c, time.Since(d.started), nil
		}
		select {
		case <-d.waited:
			return nil, 0, fmt.Errorf("rexd exited during start: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("rexd not listening on %s after %v", d.bgp, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs rexd and waits for it. Every workload ends its daemons
// this way: a clean SIGTERM would write a final checkpoint and trim the
// journal, which the replay workload must not have and the others do
// not need.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.waited
}

// cpuSeconds reads utime+stime of the daemon from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ; Linux has fixed it at 100 for every
// architecture Go runs on.
const clockTicks = 100

// rssPeakMiB reads VmHWM from /proc/<pid>/status.
func (d *daemon) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
