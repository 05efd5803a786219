package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cube/internal/promtext"
)

// buildServer compiles ./cmd/cube-server of the repository at repo into
// dir and returns the binary's path.
func buildServer(ctx context.Context, repo, dir string) (string, error) {
	bin := filepath.Join(dir, "cube-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cube-server")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cube-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running cube-server with production defaults, a fresh
// store, and JSON logs.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	logs *logWatcher
	done chan struct{} // closed once the process has been reaped
}

// startServer execs the server and returns once it answers /readyz.
func startServer(ctx context.Context, bin, dir string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &serverProc{logs: &logWatcher{ready: make(chan string, 1)}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", filepath.Join(dir, "store"), "-log-format", "json")
	// Uploads the multipart reader spills to disk stay inside the run dir.
	p.cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	p.cmd.Stderr = p.logs
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cube-server: %w", err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	select {
	case p.url = <-p.logs.ready:
	case <-p.done:
		return nil, fmt.Errorf("cube-server exited before listening:\n%s", p.logs.tail())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("cube-server did not report its address within 30s")
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-p.done:
			return nil, fmt.Errorf("cube-server exited before ready:\n%s", p.logs.tail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, lets the server drain, and waits for the process to
// end, killing it if it outlives the drain.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMiB reads the server's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches the server's /metrics exposition.
func (p *serverProc) scrape(ctx context.Context) (promtext.Metrics, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return promtext.Parse(resp.Body)
}

// logWatcher receives the server's stderr: it reports the listen URL from
// the "cube-server listening" record and keeps the last lines for error
// messages.
type logWatcher struct {
	ready   chan string
	mu      sync.Mutex
	partial []byte
	lines   []string
	found   bool
}

func (w *logWatcher) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, b...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		line := string(w.partial[:i])
		w.partial = w.partial[i+1:]
		if len(w.lines) == 20 {
			w.lines = w.lines[1:]
		}
		w.lines = append(w.lines, line)
		if w.found {
			continue
		}
		var rec struct {
			Msg string `json:"msg"`
			URL string `json:"url"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "cube-server listening" && rec.URL != "" {
			w.found = true
			w.ready <- rec.URL
		}
	}
	return len(b), nil
}

func (w *logWatcher) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.lines, "\n")
}
