package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ebid"
)

// workRoot is where everything the benchmark writes goes: binaries, WALs,
// logs, results. It sits under the directory the command is run from, so a
// run never touches anything outside its checkout.
const workRoot = ".bench_build"

// buildBinaries compiles the two servers into workRoot/bin. A warm build
// cache makes this a no-op; the first run in a checkout pays the compile.
func buildBinaries() (serverBin, proxyBin string, err error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", "", fmt.Errorf("run from the repository root: %w", err)
	}
	binDir, err := filepath.Abs(filepath.Join(workRoot, "bin"))
	if err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/ebid-server", "./cmd/ebid-proxy")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build: %w\n%s", err, out)
	}
	return filepath.Join(binDir, "ebid-server"), filepath.Join(binDir, "ebid-proxy"), nil
}

// fixture is the set of OS processes one workload runs against, with the
// directory holding their WALs and logs.
type fixture struct {
	dir      string
	target   string   // host:port the load goes to
	backends []string // host:port of each ebid-server (the target itself when there is no proxy)
	proxy    *exec.Cmd
	server   *exec.Cmd // direct workloads
	logs     []string
	stopped  bool
	deadCPU  float64            // CPU seconds of incarnations that are gone
	peakRSS  map[string]float64 // MiB, by process role, max over incarnations
	lastSeen map[string]procSample
}

type procSample struct {
	pid int
	cpu float64 // utime+stime, seconds
}

// live is what a signal handler or a fatal error must still clean up.
var live = struct {
	sync.Mutex
	dirs map[string]bool    // fixture dirs whose processes may be alive
	cmds map[*exec.Cmd]bool // processes started directly
}{dirs: map[string]bool{}, cmds: map[*exec.Cmd]bool{}}

// freePorts finds n consecutive free loopback ports (ebid-proxy numbers
// its backends upward from -base-port).
func freePorts(n int) (int, error) {
	for try := 0; try < 50; try++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := l.Addr().(*net.TCPAddr).Port
		_ = l.Close() // only probing
		ok := true
		for i := 0; i < n && ok; i++ {
			p, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				ok = false
				break
			}
			_ = p.Close() // only probing
		}
		if ok {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no %d consecutive free ports found", n)
}

func startProc(dir, logName, bin string, args ...string) (*exec.Cmd, string, error) {
	logPath := filepath.Join(dir, logName)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, "", err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Its own process group, so a kill takes the whole tree; and a SIGTERM
	// if the benchmark itself dies, so that even then the proxy retires
	// its children and nothing is left running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	live.cmds[cmd] = true
	live.Unlock()
	return cmd, logPath, nil
}

// startFixture spawns the workload's processes and waits until they serve.
func startFixture(w *workloadSpec, runDir string, serverBin, proxyBin string) (*fixture, error) {
	// A directory of its own, never reused: a server that finds a WAL
	// where it is told to keep one recovers it instead of loading the
	// seed dataset.
	dir, err := os.MkdirTemp(runDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	f := &fixture{dir: dir, peakRSS: map[string]float64{}, lastSeen: map[string]procSample{}}
	live.Lock()
	live.dirs[dir] = true
	live.Unlock()
	serverArgs := append([]string{"-users", strconv.Itoa(int(w.ds.users)), "-items", strconv.Itoa(int(w.ds.items))}, w.serverArgs...)
	if w.backends == 0 {
		port, perr := freePorts(1)
		if perr != nil {
			return f, perr
		}
		f.target = fmt.Sprintf("127.0.0.1:%d", port)
		f.backends = []string{f.target}
		args := append([]string{"-addr", f.target}, serverArgs...)
		if w.wal {
			args = append(args, "-wal", filepath.Join(dir, "node0.wal"))
		}
		var logPath string
		f.server, logPath, err = startProc(dir, "server.log", serverBin, args...)
		if err != nil {
			return f, err
		}
		f.logs = append(f.logs, logPath)
		return f, waitHTTP("http://"+f.target+"/healthz", 20*time.Second)
	}
	port, err := freePorts(1 + w.backends)
	if err != nil {
		return f, err
	}
	f.target = fmt.Sprintf("127.0.0.1:%d", port)
	for i := 0; i < w.backends; i++ {
		f.backends = append(f.backends, fmt.Sprintf("127.0.0.1:%d", port+1+i))
	}
	args := []string{
		"-addr", f.target, "-server-bin", serverBin,
		"-backends", strconv.Itoa(w.backends), "-base-port", strconv.Itoa(port + 1),
		"-policy", w.policy, "-wal-dir", dir,
		"-server-flags", strings.Join(serverArgs, " "),
	}
	args = append(args, w.proxyArgs...)
	var logPath string
	// The supervised children inherit the proxy's stdout/stderr, so one
	// log holds the whole fleet.
	f.proxy, logPath, err = startProc(dir, "fleet.log", proxyBin, args...)
	if err != nil {
		return f, err
	}
	f.logs = append(f.logs, logPath)
	return f, waitHTTP("http://"+f.target+"/admin/proxy/ready", 30*time.Second)
}

var adminClient = &http.Client{Timeout: 5 * time.Second}

func waitHTTP(url string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := adminClient.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %w", url, patience, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(url string, v any) error {
	resp, err := adminClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func postJSON(url string, v any) error {
	resp, err := adminClient.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// proxyStatus is the part of /admin/proxy/status the benchmark reads.
type proxyStatus struct {
	Router struct {
		Backends []struct {
			Name      string `json:"name"`
			Healthy   bool   `json:"healthy"`
			Completed int64  `json:"completed"`
			Failed    int64  `json:"failed"`
		} `json:"backends"`
		LostSessions int64 `json:"lost_sessions"`
		Spilled      int64 `json:"spilled"`
		Shed         int64 `json:"shed"`
		Retried      int64 `json:"retried"`
	} `json:"router"`
	Supervisor []struct {
		Name     string `json:"name"`
		Pid      int    `json:"pid"`
		Gen      int    `json:"gen"`
		Ready    bool   `json:"ready"`
		Restarts int    `json:"restarts"`
	} `json:"supervisor"`
}

func (f *fixture) proxyStatus() (proxyStatus, error) {
	var st proxyStatus
	err := getJSON("http://"+f.target+"/admin/proxy/status", &st)
	return st, err
}

// history reads an item's bid count straight from every backend, for the
// bid ledger's checks, on a fresh connection each: a backend may have been
// restarted since the last call.
func (f *fixture) history(item int64) ([]int, error) {
	counts := make([]int, 0, len(f.backends))
	for _, b := range f.backends {
		c := newConn(b)
		resp, err := c.get("/ebid/"+ebid.ViewBidHistory+"?item="+strconv.FormatInt(item, 10), "", -1)
		if err == nil && resp.status != http.StatusOK {
			err = fmt.Errorf("status %d", resp.status)
		}
		n := 0
		if err == nil {
			n, err = parseBidHistory(string(resp.body))
		}
		c.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b, err)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// pids lists the fixture's live server processes by role.
func (f *fixture) pids() (map[string]int, error) {
	if f.server != nil {
		return map[string]int{"node0": f.server.Process.Pid}, nil
	}
	st, err := f.proxyStatus()
	if err != nil {
		return nil, err
	}
	out := map[string]int{"proxy": f.proxy.Process.Pid}
	for _, c := range st.Supervisor {
		out[c.Name] = c.Pid
	}
	return out, nil
}

// sample reads CPU and peak RSS of every live process. A role whose pid
// changed since the last sample was restarted: the dead incarnation's CPU,
// as last seen, is kept in deadCPU so a restart does not erase its cost.
// Call it right before a deliberate kill to lose as little as possible.
func (f *fixture) sample() error {
	pids, err := f.pids()
	if err != nil {
		return err
	}
	for role, pid := range pids {
		cpu, err := procCPU(pid)
		if err != nil {
			continue // exited between the status poll and the read
		}
		if last, ok := f.lastSeen[role]; ok && last.pid != pid {
			f.deadCPU += last.cpu
		}
		f.lastSeen[role] = procSample{pid: pid, cpu: cpu}
		if rss, err := procPeakRSS(pid); err == nil && rss > f.peakRSS[role] {
			f.peakRSS[role] = rss
		}
	}
	return nil
}

// cpuSeconds is the CPU all server processes have used so far.
func (f *fixture) cpuSeconds() float64 {
	total := f.deadCPU
	for _, s := range f.lastSeen {
		total += s.cpu
	}
	return total
}

func (f *fixture) rssMiB() float64 {
	var total float64
	for _, v := range f.peakRSS {
		total += v
	}
	return total
}

var clockTick = 100.0 // USER_HZ; fixed at 100 on every Linux ABI Go supports

// procCPU returns utime+stime of a process in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the ")".
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (ut + st) / clockTick, nil
}

// procPeakRSS returns VmHWM in MiB.
func procPeakRSS(pid int) (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// stop ends every process of the fixture and waits for them. The proxy is
// asked first (SIGTERM makes it retire its children); whatever survives a
// short grace is killed by process group, and a final sweep kills anything
// whose command line names the fixture directory — the supervised backends
// lead their own groups, so killing the proxy's group alone would orphan
// them.
func (f *fixture) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	for _, cmd := range []*exec.Cmd{f.proxy, f.server} {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }() // exit status is irrelevant at teardown
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			<-done
		}
	}
	sweep(f.dir)
	live.Lock()
	delete(live.dirs, f.dir)
	delete(live.cmds, f.proxy)
	delete(live.cmds, f.server)
	live.Unlock()
}

// sweep SIGKILLs every process whose command line mentions dir and waits
// until none is left.
func sweep(dir string) {
	for try := 0; try < 100; try++ {
		found := false
		entries, _ := os.ReadDir("/proc") // an unreadable /proc leaves nothing to sweep
		for _, e := range entries {
			pid, err := strconv.Atoi(e.Name())
			if err != nil || pid == os.Getpid() {
				continue
			}
			cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
			if err != nil || !bytes.Contains(cmdline, []byte(dir)) {
				continue
			}
			found = true
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
		if !found {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepAll is the last-resort cleanup for signals and fatal errors.
func sweepAll() {
	live.Lock()
	defer live.Unlock()
	for cmd := range live.cmds {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
	for d := range live.dirs {
		sweep(d)
	}
}

// logTail returns the last lines of every log of the fixture, for the
// report of a failed check.
func (f *fixture) logTail(lines int) string {
	var b strings.Builder
	for _, p := range f.logs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(all) > lines {
			all = all[len(all)-lines:]
		}
		fmt.Fprintf(&b, "--- tail of %s ---\n%s\n", p, strings.Join(all, "\n"))
	}
	return b.String()
}
