package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one running xmlconsistd process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port
	drained chan struct{}
}

// daemonArgs is the daemon's configuration in every run: a free
// loopback port and one scope worker per CPU, so the worker pool can
// use the core a single connection leaves free.
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-parallel", "-1"}

// startDaemon execs the daemon and returns once it has announced its
// listening address.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, daemonArgs...)
	cmd.Stderr = io.Discard // one log line per request; not measured
	// Should the benchmark itself be killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			if line := sc.Text(); !announced && strings.Contains(line, "listening on http://") {
				announced = true
				ready <- line[strings.Index(line, "http://")+len("http://"):]
			}
		}
		if !announced {
			close(ready)
		}
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			d.kill()
			return nil, errors.New("daemon exited before listening")
		}
		d.addr = strings.TrimSpace(addr)
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("daemon did not announce a listening address within 30s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully and waits for it to exit,
// killing it if it has not exited within ten seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("daemon ignored SIGTERM for 10s")
	}
	return d.cmd.Wait()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.drained
	_ = d.cmd.Wait() // the kill is the outcome; its exit status is not
}

// cpuClock returns the CPU time every thread of process pid has used,
// read from the kernel's per-process CPU-time clock, the clock
// clock_getcpuclockid(3) names. It counts in nanoseconds and, like the
// CPU times in /proc, leaves out time the hypervisor stole.
func cpuClock(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	id := (^pid)<<3 | 2 // the kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("reading the CPU clock of process %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSSKiB returns a process's resident-set high-water mark (VmHWM).
func peakRSSKiB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is a reading of the host's aggregate CPU counters.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("unexpected /proc/stat layout")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		h.total += v
	}
	h.steal, _ = strconv.ParseInt(f[8], 10, 64) // parsed above
	return h, nil
}

// stealShare is the share of CPU time the hypervisor stole between two
// readings.
func stealShare(from, to hostCPU) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}
