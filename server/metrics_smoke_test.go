package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rewind-db/rewind/client"
)

// TestMetricsEndpointSmoke is the end-to-end observability smoke: it
// builds the real rewindd binary, boots it with -metrics-addr, drives a
// little traffic over the wire, then scrapes /metrics, /statsz and pprof
// and asserts the expected metric families are present and parseable.
// When METRICS_SNAPSHOT names a path, the /statsz document is saved there
// (CI uploads it as an artifact). Skipped under -short (it builds a
// binary); CI runs it as a dedicated step.
func TestMetricsEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon; run without -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rewindd")
	build := exec.Command("go", "build", "-o", bin, "github.com/rewind-db/rewind/cmd/rewindd")
	build.Dir = ".." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rewindd: %v\n%s", err, out)
	}
	addr := freeAddr(t)
	metricsAddr := freeAddr(t)

	cmd := exec.Command(bin,
		"-addr", addr,
		"-backing", filepath.Join(dir, "arena.nvm"),
		"-arena", "67108864",
		"-metrics-addr", metricsAddr,
		"-slow-op", "1s",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	waitDial(t, addr)

	// Drive traffic so every family has something to show.
	cl := client.Dial(addr, client.Options{Conns: 2})
	defer cl.Close()
	for i := uint64(0); i < 200; i++ {
		if err := cl.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if _, err := cl.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Delete(3); err != nil {
		t.Fatal(err)
	}

	// /metrics: Prometheus exposition with the families the issue names —
	// op latencies, commit-phase latencies, device fences/flushes, log
	// bytes, group-commit fan-in, checkpoint pauses.
	prom := httpGet(t, "http://"+metricsAddr+"/metrics")
	for _, family := range []string{
		"rewind_op_put_wall_ns", "rewind_op_get_wall_ns",
		"rewind_commit_flush_fence_wall_ns", "rewind_commit_publish_wall_ns",
		"rewind_device_fences_total", "rewind_device_flushes_total",
		"rewind_log_bytes_total", "rewind_gc_rounds_total",
		"rewind_log_live_records", "rewind_log_buckets", "rewind_log_occupancy_bytes",
		"rewind_checkpoint_last_max_pause_ns",
		"rewind_kv_puts_total", "rewind_server_requests_total",
	} {
		if !strings.Contains(prom, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// Every exposition line is "name{...} value" or a comment; a torn or
	// malformed line would break any Prometheus scraper.
	for _, line := range strings.Split(strings.TrimSpace(prom), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}

	// /statsz: one flat JSON document.
	statsz := httpGet(t, "http://"+metricsAddr+"/statsz")
	var doc map[string]any
	if err := json.Unmarshal([]byte(statsz), &doc); err != nil {
		t.Fatalf("/statsz is not valid JSON: %v\n%s", err, statsz)
	}
	if len(doc) == 0 {
		t.Fatal("/statsz document is empty")
	}

	// pprof is mounted.
	if body := httpGet(t, "http://"+metricsAddr+"/debug/pprof/cmdline"); !strings.Contains(body, "rewindd") {
		t.Errorf("pprof cmdline does not name the binary: %q", body)
	}

	if path := os.Getenv("METRICS_SNAPSHOT"); path != "" {
		if err := os.WriteFile(path, []byte(statsz), 0o644); err != nil {
			t.Fatalf("writing snapshot artifact: %v", err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(statsz))
	}
}

// waitDial blocks until the daemon accepts TCP connections.
func waitDial(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		cl := client.Dial(addr, client.Options{Conns: 1})
		_, err := cl.Stats()
		cl.Close()
		if err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("rewindd did not start accepting connections")
}

// httpGet fetches a URL and returns its body, failing the test on any
// transport or status error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}
