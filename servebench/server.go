package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one chainserve process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	pid  int

	logMu sync.Mutex
	log   bytes.Buffer   // stderr after the listening line, for diagnostics
	logWG sync.WaitGroup // the stderr drain
}

// startServer spawns bin with default flags plus -addr, in serverEnv,
// and returns once the process logged its listening line and answers
// /healthz. Readiness never sleeps: the log line is read as it is
// written, then /healthz is retried in a tight loop until the listener
// is bound.
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = serverEnv(os.Environ())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start chainserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, pid: cmd.Process.Pid}

	listening := make(chan error, 1)
	s.logWG.Add(1)
	go func() {
		defer s.logWG.Done()
		sc := bufio.NewScanner(stderr)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			if !seen && strings.Contains(line, "listening on") {
				seen = true
				listening <- nil
				continue
			}
			s.logMu.Lock()
			s.log.WriteString(line + "\n")
			s.logMu.Unlock()
		}
		if !seen {
			listening <- fmt.Errorf("chainserve exited before listening")
		}
		io.Copy(io.Discard, stderr)
	}()

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case err = <-listening:
	case <-deadline.C:
		err = fmt.Errorf("chainserve did not log its listening line within 60s")
	}
	if err == nil {
		err = s.waitHealthy(time.Now().Add(30 * time.Second))
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("%w; log:\n%s", err, s.logText())
	}
	return s, nil
}

// serverEnv is env without the variables that would change what is
// measured behind chainserve's default flags: its own CHAINSERVE_*
// defaults (store, shards, drain, recording) and the Go runtime's
// GOGC, GOMEMLIMIT, GOMAXPROCS and GODEBUG.
func serverEnv(env []string) []string {
	var out []string
	for _, kv := range env {
		k, _, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(k, "CHAINSERVE_"),
			k == "GOGC", k == "GOMEMLIMIT", k == "GOMAXPROCS", k == "GODEBUG":
			continue
		}
		out = append(out, kv)
	}
	return out
}

// waitHealthy retries GET /healthz until it answers 200. A refused
// connection returns at once, so the loop spins only for the few
// microseconds between the log line and the bind.
func (s *server) waitHealthy(deadline time.Time) error {
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chainserve not healthy: %v", err)
		}
	}
}

func (s *server) logText() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// stop sends SIGTERM (a graceful drain), escalates to SIGKILL after 20s,
// and waits for the process and its log reader to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.logWG.Wait()
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTick = 100

// procCPU returns the user and system CPU seconds pid has used.
func procCPU(pid int) (user, sys float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name (which may hold
	// spaces): state is field 3, utime 14 and stime 15.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return float64(ut) / clockTick, float64(st) / clockTick, nil
}

// procPeakRSS returns the process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches the server's /metrics exposition.
func (s *server) scrape(ctx context.Context, c *http.Client) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}
