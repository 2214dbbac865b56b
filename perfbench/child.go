package main

// An nvramd child process: started from the binary run.sh builds, with a
// fresh state directory per phase, and stopped with SIGTERM for a
// graceful drain once the phase's checks have read its stats.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvramfs/internal/daemon"
)

// daemonArgs are the flags every service phase starts nvramd with.
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-org", "unified", "-cache-mb", "1", "-nvram-mb", "1"}

type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan error
}

// startDaemon runs bin with args and waits for its ADDR= announcement.
func startDaemon(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
	c.cmd.Stderr = &c.stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("perfbench: starting nvramd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "ADDR="); ok {
				addr <- v
			}
		}
		c.done <- c.cmd.Wait()
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case err := <-c.done:
		c.done <- err
		return nil, fmt.Errorf("perfbench: nvramd exited before announcing ADDR: %v: %s", err, c.stderr.String())
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, errors.New("perfbench: nvramd did not announce ADDR within 30s")
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
}

// kill SIGKILLs the child and waits for it to exit.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// stop asks the child to drain (SIGTERM) and waits; it reports a failed
// drain as an error.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.done:
		if err != nil {
			return fmt.Errorf("perfbench: nvramd drain: %v: %s", err, c.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("perfbench: nvramd did not drain within 30s")
	}
}

// peakRSSMB parses VmHWM (kB) out of a /proc status file.
func peakRSSMB(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: parsing VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in %s", path)
}

// quiesce polls the daemon's stats until the write-back path has settled:
// every offered byte is committed, lost or pending, and two snapshots a
// refresh tick apart agree.
func quiesce(addr string) (daemon.Snapshot, error) {
	c, err := dialWire(addr)
	if err != nil {
		return daemon.Snapshot{}, err
	}
	defer c.Close()
	var last daemon.Snapshot
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		sn, err := c.stats()
		if err != nil {
			return daemon.Snapshot{}, err
		}
		if i > 0 && balanced(sn) && sn.Faults == last.Faults &&
			sn.PendingStable == last.PendingStable && sn.PendingVolatile == last.PendingVolatile {
			return sn, nil
		}
		if time.Now().After(deadline) {
			return sn, errors.New("perfbench: daemon write-back did not quiesce within 60s")
		}
		last = sn
		time.Sleep(120 * time.Millisecond) // the snapshot refreshes every 100ms
	}
}

// balanced is the conservation law: offered = committed + lost + pending.
func balanced(sn daemon.Snapshot) bool {
	f := sn.Faults
	return f.OfferedBytes == f.CommittedBytes+f.LostBytes+sn.PendingStable+sn.PendingVolatile
}
