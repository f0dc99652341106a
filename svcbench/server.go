package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cluster is one running deployment: the `gossipq serve` process last, any
// `gossipq shard` workers before it.
type cluster struct {
	procs []*proc
	addr  string // the serve process's HTTP address
}

type proc struct {
	cmd  *exec.Cmd
	name string
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

// freeAddrs reserves k loopback ports by binding and releasing them.
func freeAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	lns := make([]net.Listener, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// launch starts the workload's deployment and returns once /healthz answers
// 200, which gossipq serve does only after its first snapshot is published
// (and, sharded, after the initial gather from every worker).
func launch(sp spec, in *inputs, bin, logDir, tag string) (*cluster, time.Duration, error) {
	addrs, err := freeAddrs(sp.shards + 2)
	if err != nil {
		return nil, 0, err
	}
	c := &cluster{addr: addrs[len(addrs)-1]}
	common := []string{"-n", strconv.Itoa(sp.n), "-workload", populationKind.String(),
		"-seed", strconv.FormatUint(in.popSeed, 10), "-log-level", "warn"}
	start := time.Now()
	if sp.shards > 0 {
		workers, router := addrs[:sp.shards], addrs[sp.shards]
		peers := strings.Join(append(append([]string{}, workers...), router), ",")
		for i := 0; i < sp.shards; i++ {
			args := append([]string{"shard", "-index", strconv.Itoa(i), "-shards", strconv.Itoa(sp.shards), "-addrs", peers}, common...)
			if err := c.start(bin, args, fmt.Sprintf("worker%d", i), logDir, tag); err != nil {
				c.stop()
				return nil, 0, err
			}
		}
		// The router's first gather is sent the moment it starts, so every
		// worker must be listening by then.
		for _, a := range workers {
			if err := waitListening(a, 60*time.Second); err != nil {
				c.stop()
				return nil, 0, err
			}
		}
		common = append(common, "-shards", strconv.Itoa(sp.shards),
			"-shard-addrs", strings.Join(workers, ","), "-router-addr", router)
	}
	eps := strconv.FormatFloat(sp.eps, 'g', -1, 64)
	args := append([]string{"serve", "-addr", c.addr, "-eps", eps, "-summary-eps", eps}, common...)
	if err := c.start(bin, args, "serve", logDir, tag); err != nil {
		c.stop()
		return nil, 0, err
	}
	if err := c.waitHealthy(120 * time.Second); err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

func (c *cluster) start(bin string, args []string, name, logDir, tag string) error {
	f, err := os.Create(filepath.Join(logDir, tag+"-"+name+".log"))
	if err != nil {
		return err
	}
	p := &proc{cmd: exec.Command(bin, args...), name: name, log: f, done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = f, f
	// The kernel kills the server the moment the benchmark exits, however
	// it exits. (The signal follows the thread that started the child; the
	// generator never ends a thread, since every goroutine that locks one
	// unlocks it.)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	c.procs = append(c.procs, p)
	return nil
}

func waitListening(addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			nc.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *cluster) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if cn, err := dial(c.addr); err == nil {
			status, _, err := cn.do("GET", "/healthz", nil)
			cn.close()
			if err == nil && status == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v", c.addr, limit)
		}
		for _, p := range c.procs {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during set-up (see %s)", p.name, p.log.Name())
			default:
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSS returns each process's VmHWM in MB, in launch order.
func (c *cluster) peakRSS() ([]float64, error) {
	out := make([]float64, len(c.procs))
	for i, p := range c.procs {
		kb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[i] = float64(kb) / 1024
	}
	return out, nil
}

func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// stop terminates every process (router first, so workers see no new
// epochs) and waits for each to exit.
func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		p := c.procs[i]
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	}
	c.procs = nil
}

// scrape reads the server's Prometheus exposition into a map keyed by the
// series as written, e.g. `gossipq_snapshot_fallbacks_total` or
// `gossipq_http_request_duration_seconds_sum{path="/quantile"}`.
func scrape(addr string) (map[string]float64, error) {
	cl := &http.Client{Timeout: 30 * time.Second}
	defer cl.CloseIdleConnections()
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
