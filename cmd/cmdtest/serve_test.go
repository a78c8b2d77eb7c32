package cmdtest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveStats is the subset of greenserve's /stats payload the tests
// inspect.
type serveStats struct {
	Restore string `json:"restore"`
	Queries int64  `json:"queries"`
}

// startServe boots greenserve with the given extra flags and waits for
// it to listen. Returns the process and its output buffer; the caller
// owns shutdown.
func startServe(t *testing.T, addr string, extra ...string) (*exec.Cmd, *lockedBuffer) {
	t.Helper()
	args := append([]string{"-addr", addr}, extra...)
	var out lockedBuffer
	cmd := exec.Command(filepath.Join(binaries(t), "greenserve"), args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(out.String(), "listening on") {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("server never came up:\n%s", out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	return cmd, &out
}

// stopServe SIGTERMs the child and waits for a clean exit.
func stopServe(t *testing.T, cmd *exec.Cmd, out *lockedBuffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server did not exit after SIGTERM:\n%s", out.String())
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func getStats(t *testing.T, base string) serveStats {
	t.Helper()
	var st serveStats
	if err := json.Unmarshal(httpGet(t, base+"/stats"), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGreenserveSnapshotRestart boots greenserve with a state
// directory, verifies /stats reports the match controller's executions,
// and checks the bundled snapshot written at shutdown restores them
// across a restart.
func TestGreenserveSnapshotRestart(t *testing.T) {
	stateDir := t.TempDir()
	addr := freePort(t)
	base := "http://" + addr
	// A small corpus and calibration keep the calibration phase fast
	// enough for a smoke test.
	flags := []string{"-docs", "3000", "-cal-queries", "50", "-state-dir", stateDir}

	cmd, out := startServe(t, addr, flags...)
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
		}
	}()

	if !strings.Contains(out.String(), `controller "serve.match"`) {
		t.Errorf("startup log missing the match controller:\n%s", out.String())
	}

	for i := 0; i < 12; i++ {
		httpGet(t, fmt.Sprintf("%s/search?q=alpha+beta+q%d", base, i))
	}
	st1 := getStats(t, base)
	if st1.Queries != 12 {
		t.Fatalf("/stats queries = %d, want 12", st1.Queries)
	}

	stopServe(t, cmd, out)
	exited = true
	if !strings.Contains(out.String(), "final snapshot written") {
		t.Fatalf("no final snapshot on shutdown:\n%s", out.String())
	}

	// Restart with the identical configuration: the snapshot must
	// restore the controller.
	addr2 := freePort(t)
	base2 := "http://" + addr2
	cmd2, out2 := startServe(t, addr2, flags...)
	defer cmd2.Process.Kill()
	if !strings.Contains(out2.String(), "(restored)") {
		t.Errorf("restart did not restore state:\n%s", out2.String())
	}
	st2 := getStats(t, base2)
	if st2.Restore != "restored" {
		t.Errorf("/stats restore = %q, want restored", st2.Restore)
	}
	if st2.Queries != 12 {
		t.Errorf("/stats queries after restart = %d, want 12", st2.Queries)
	}
	stopServe(t, cmd2, out2)
}
