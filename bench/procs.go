package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// target is the system under test as the run protocol sees it: a
// long-lived worker pool plus a way to start a fresh query service on
// it. The benchmark builds it from real processes (spawnTarget); the
// smoke test from in-process listeners.
type target struct {
	workers    []string
	workerPIDs []int
	// startServe starts a query service with production defaults on
	// the pool and returns once it accepts requests. stop must be
	// called exactly once and returns after the service has ended.
	startServe func(ctx context.Context) (baseURL string, pid int, stop func(), err error)
	// stop ends the pool and waits for it.
	stop func()
}

// child starts one product binary that dies with the harness:
// Pdeathsig covers a harness that is itself killed.
func child(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// reap kills a child and waits until it has ended.
func reap(cmd *exec.Cmd) {
	_ = cmd.Process.Kill() // already gone is fine
	_ = cmd.Wait()         // the exit status of a killed child says nothing
}

// spawnTarget starts p mpcworker processes on free loopback ports and
// returns a target whose startServe spawns one mpcserve on them.
func spawnTarget(ctx context.Context, binDir string, p int) (*target, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	t := &target{}
	var cmds []*exec.Cmd
	t.stop = func() {
		for _, c := range cmds {
			reap(c)
		}
	}
	for i := 0; i < p; i++ {
		cmd := child(binDir+"/mpcworker", "-listen", "127.0.0.1:0")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			t.stop()
			return nil, fmt.Errorf("start mpcworker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
		// The worker prints its resolved address once, then nothing.
		line := make(chan string, 1)
		go func() {
			s, _ := bufio.NewReader(out).ReadString('\n')
			line <- s
		}()
		select {
		case s := <-line:
			addr := strings.TrimSpace(strings.TrimPrefix(s, "mpcworker listening on "))
			if _, _, err := net.SplitHostPort(addr); err != nil {
				t.stop()
				return nil, fmt.Errorf("mpcworker %d: unexpected start-up line %q", i, s)
			}
			t.workers = append(t.workers, addr)
			t.workerPIDs = append(t.workerPIDs, cmd.Process.Pid)
		case <-ctx.Done():
			t.stop()
			return nil, fmt.Errorf("mpcworker %d did not report its address: %w", i, ctx.Err())
		}
	}
	t.startServe = func(ctx context.Context) (string, int, func(), error) {
		// mpcserve does not print a resolved ":0" address, so reserve a
		// free port and hand it over.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", 0, nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := child(binDir+"/mpcserve", "-addr", addr, "-workers", strings.Join(t.workers, ","))
		if err := cmd.Start(); err != nil {
			return "", 0, nil, fmt.Errorf("start mpcserve: %w", err)
		}
		base := "http://" + addr
		if err := waitHealthy(ctx, base); err != nil {
			reap(cmd)
			return "", 0, nil, err
		}
		return base, cmd.Process.Pid, func() { reap(cmd) }, nil
	}
	return t, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("mpcserve at %s never became healthy: %w", base, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpuMillis returns the CPU time (user + system) the processes have
// used so far, in milliseconds. It reads each process's CPU-time clock
// with clock_gettime(2), which counts in nanoseconds and keeps the time
// of threads that have exited; /proc/<pid>/stat counts in 10 ms ticks,
// too coarse for one op.
func cpuMillis(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		// The clock id of process pid's CPU time, as clock_getcpuclockid(3)
		// builds it: the complemented pid above the three type bits, type
		// CPUCLOCK_SCHED (2), per-process.
		clock := uintptr(int32(^uint32(pid)<<3 | 2))
		var ts syscall.Timespec
		if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
			return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
		}
		total += float64(ts.Nano()) / 1e6
	}
	return total, nil
}

// peakRSSMB returns the summed VmHWM of the processes in MiB.
func peakRSSMB(pids []int) (float64, error) {
	kb := 0
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, v)
				}
				kb += n
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
	}
	return float64(kb) / 1024, nil
}
