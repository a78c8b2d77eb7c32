package cmdtest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// coordPage is the subset of the coordinator's /search payload this
// test inspects.
type coordPage struct {
	Docs         []int    `json:"docs"`
	Degraded     bool     `json:"degraded"`
	ShardsOK     int      `json:"shards_ok"`
	FailedShards []string `json:"failed_shards"`
}

func getCoordPage(t *testing.T, base string) (int, coordPage) {
	t.Helper()
	resp, err := http.Get(base + "/search?q=ocean+tree")
	if err != nil {
		t.Fatalf("GET coordinator: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var page coordPage
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
	}
	return resp.StatusCode, page
}

// TestClusterWorkerKillAndRecovery is the real-binary fleet smoke: a
// coordinator over two single-replica shard workers serves clean pages,
// keeps serving (degraded, naming the lost shard) after one worker is
// SIGKILLed, and returns to full coverage once a replacement worker
// comes back on the same address.
func TestClusterWorkerKillAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet smoke")
	}
	workerFlags := func(index int) []string {
		return []string{"-role", "worker", "-shard-index", strconv.Itoa(index),
			"-shard-count", "2", "-docs", "2000", "-cal-queries", "40"}
	}
	w0addr, w1addr := freePort(t), freePort(t)
	w0, w0out := startServe(t, w0addr, workerFlags(0)...)
	defer w0.Process.Kill()
	w1, _ := startServe(t, w1addr, workerFlags(1)...)
	defer w1.Process.Kill()
	if !strings.Contains(w0out.String(), "worker: shard 0 of 2") {
		t.Fatalf("worker 0 startup log missing shard line:\n%s", w0out.String())
	}

	coAddr := freePort(t)
	co, _ := startServe(t, coAddr, "-role", "coordinator",
		"-shards", "http://"+w0addr+";http://"+w1addr,
		"-quorum", "1", "-retries", "1", "-request-timeout", "2s",
		"-aggregate-interval", "1s")
	defer co.Process.Kill()
	base := "http://" + coAddr

	// Healthy fleet: full coverage.
	code, page := getCoordPage(t, base)
	if code != http.StatusOK || page.Degraded || page.ShardsOK != 2 {
		t.Fatalf("healthy fleet: code=%d page=%+v", code, page)
	}

	// Kill shard 0's only worker outright (no drain, no snapshot — a
	// crashed process). The coordinator must degrade, not fail.
	if err := w0.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = w0.Wait()
	degraded := false
	for i := 0; i < 50 && !degraded; i++ {
		code, page = getCoordPage(t, base)
		if code != http.StatusOK {
			t.Fatalf("kill phase: coordinator refused with %d under quorum 1", code)
		}
		if page.Degraded {
			degraded = true
			if len(page.FailedShards) != 1 || page.FailedShards[0] != "shard0" {
				t.Fatalf("degraded page blamed %v, want [shard0]", page.FailedShards)
			}
			if page.ShardsOK != 1 {
				t.Fatalf("degraded page shards_ok = %d, want 1", page.ShardsOK)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !degraded {
		t.Fatal("coordinator never served a degraded page after the worker died")
	}

	// A replacement worker on the same address: the coordinator's
	// breaker re-probes under traffic and coverage returns.
	w0b, w0bout := startServe(t, w0addr, workerFlags(0)...)
	defer w0b.Process.Kill()
	// What the restart cost is on its log and in its /stats.
	var boot struct {
		Boot struct {
			EngineMS    float64  `json:"engine_ms"`
			CalibrateMS float64  `json:"calibrate_ms"`
			RestoreMS   *float64 `json:"restore_ms"`
		} `json:"boot"`
	}
	if err := json.Unmarshal(httpGet(t, "http://"+w0addr+"/stats"), &boot); err != nil {
		t.Fatal(err)
	}
	if b := boot.Boot; b.EngineMS <= 0 || b.CalibrateMS <= 0 || b.RestoreMS == nil {
		t.Fatalf("restarted worker /stats boot = %+v, want engine_ms and calibrate_ms > 0 and a restore_ms", b)
	}
	if line := fmt.Sprintf("(engine %.1f ms, calibrate %.1f ms, restore %.1f ms)",
		boot.Boot.EngineMS, boot.Boot.CalibrateMS, *boot.Boot.RestoreMS); !strings.Contains(w0bout.String(), line) {
		t.Errorf("restarted worker's calibrated: line does not report %s:\n%s", line, w0bout.String())
	}
	recovered := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, page = getCoordPage(t, base)
		if code == http.StatusOK && !page.Degraded && page.ShardsOK == 2 {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("fleet never recovered after worker restart: code=%d page=%+v", code, page)
	}

	// The coordinator's readiness and federated stats agree.
	if resp, err := http.Get(base + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("readyz after recovery = %d", resp.StatusCode)
		}
	}
	var st struct {
		Role          string `json:"role"`
		ShardsHealthy int    `json:"shards_healthy"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" || st.ShardsHealthy != 2 {
		t.Errorf("coordinator stats after recovery = %+v", st)
	}
}
