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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout is how long a boot may take before the run fails fast.
const readyTimeout = 60 * time.Second

// buildServer compiles cmd/elinda-server from the checkout's source into
// binDir. The Go build cache is kept inside the checkout too, so a run
// writes nothing outside it.
func buildServer(root, binDir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(binDir, "elinda-server")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/elinda-server")
	cmd.Dir = root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(root, buildDir, "go-cache"))
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/elinda-server: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// server is one elinda-server child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	logFile *os.File
	// setup is exec → first /readyz 200.
	setup time.Duration
	done  chan struct{} // closed when the process has been reaped
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

// startServer execs the server and waits for /readyz. It must be called
// from the main goroutine, which is locked to its OS thread: Pdeathsig is
// tied to the forking thread, and the main thread lives as long as the
// process, so the child dies with the harness whatever kills it.
func startServer(bin string, flags []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		cmd:     exec.Command(bin, append([]string{"-addr", addr}, flags...)...),
		base:    "http://" + addr,
		logPath: logPath,
		logFile: logFile,
		done:    make(chan struct{}),
	}
	s.cmd.Stdout = logFile
	s.cmd.Stderr = logFile
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	if err := s.waitReady(start); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w\n--- tail of %s ---\n%s", err, logPath, tail(logPath, 30))
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *server) waitReady(start time.Time) error {
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < readyTimeout {
		select {
		case <-s.done:
			return fmt.Errorf("server exited before it was ready")
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("/readyz not 200 after %s", readyTimeout)
}

// kill sends SIGKILL and waits until the process has ended.
func (s *server) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.done
	s.logFile.Close()
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverMetrics is the part of the server's /metrics document the
// benchmark reads.
type serverMetrics struct {
	Proxy struct {
		Counts    map[string]int `json:"counts"`
		Coalesced int            `json:"coalesced"`
		Cache     struct {
			Hits, DeltaEvictions, DeltaRetained int
		} `json:"cache"`
	} `json:"proxy"`
	Server struct {
		Updates int `json:"updates"`
	} `json:"server"`
	WAL struct {
		Syncs           int   `json:"syncs"`
		ReplayedRecords int   `json:"replayed_records"`
		ReplayNS        int64 `json:"replay_ns"`
	} `json:"wal"`
	Store struct {
		Triples int `json:"triples"`
	} `json:"store"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// tail returns the last n lines of a file, for failure messages.
func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}
