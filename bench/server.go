package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. Linux
// reports them in USER_HZ, which is 100 on every supported platform.
const clockTick = 10 * time.Millisecond

// proc is a child process the benchmark started: the server under
// test, or the transport-floor echo.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  *os.File
	tmp  string // directory to remove once the process has ended, if any
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc runs bin with args plus "-addr <free port>", sending its
// output to logPath, and waits until GET probe answers 200.
func startProc(bin string, args []string, logPath, probe string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.base + probe)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not answer %s within 20s (see %s)", bin, probe, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the process and waits until it has ended.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.log.Close()
	if p.tmp != "" {
		os.RemoveAll(p.tmp)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// parseProcStat extracts utime+stime from the text of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseVmHWM extracts the peak resident set size, in KiB, from the
// text of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuTime reads the process's consumed CPU time (user + system).
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// peakRSSKiB reads the process's resident-set high-water mark.
func (p *proc) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// serverStats is the GET /stats body, held untyped: the benchmark
// reads counters by name and must keep working when one is removed.
type serverStats map[string]any

func (p *proc) stats() (serverStats, error) {
	resp, err := http.Get(p.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s serverStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return s, nil
}

// num reads a numeric field; nil when the server does not report it.
func (s serverStats) num(field string) *float64 {
	if v, ok := s[field].(float64); ok {
		return &v
	}
	return nil
}

// tenantNum reads a numeric field of one tenant's entry under
// "Tenants", or the largest value over all tenants for tenant "";
// nil when no entry reports it.
func (s serverStats) tenantNum(tenant, field string) *float64 {
	var worst *float64
	list, _ := s["Tenants"].([]any)
	for _, e := range list {
		m, _ := e.(map[string]any)
		if name, _ := m["Tenant"].(string); tenant != "" && name != tenant {
			continue
		}
		if x, ok := m[field].(float64); ok && (worst == nil || x > *worst) {
			worst = &x
		}
	}
	return worst
}

// delta is a counter's growth between two snapshots; nil when either
// snapshot lacks the field.
func delta(before, after serverStats, field string) *float64 {
	a, b := before.num(field), after.num(field)
	if a == nil || b == nil {
		return nil
	}
	d := *b - *a
	return &d
}

// div divides two optional numbers: nil when either is absent, 0 when
// the divisor is 0.
func div(n, d *float64) *float64 {
	if n == nil || d == nil {
		return nil
	}
	q := 0.0
	if *d != 0 {
		q = *n / *d
	}
	return &q
}

// post sends one set-up request and fails on any non-2xx answer.
func post(url string, header map[string]string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}
