package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestOpsSnapshot(t *testing.T) {
	var c OpsCounters
	c.Shed.Add(3)
	c.DeadlinePartial.Add(2)
	c.Degraded.Add(4)
	c.BudgetPushes.Add(6)
	c.SnapshotSaves.Add(5)
	c.SnapshotErrors.Add(1)
	c.RestoreRejected.Add(1)
	c.Certified.Add(9)
	c.MonitoredCertified.Add(7)
	c.MonitoredMemo.Add(8)
	s := c.Snapshot()
	if s.Shed != 3 || s.DeadlinePartial != 2 || s.Degraded != 4 ||
		s.BudgetPushes != 6 || s.SnapshotSaves != 5 ||
		s.SnapshotErrors != 1 || s.RestoreRejected != 1 ||
		s.Certified != 9 || s.MonitoredCertified != 7 || s.MonitoredMemo != 8 {
		t.Errorf("snapshot = %+v", s)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["shed"] != 3 || decoded["restore_rejected"] != 1 ||
		decoded["degraded"] != 4 || decoded["budget_pushes"] != 6 ||
		decoded["certified"] != 9 || decoded["monitored_certified"] != 7 || decoded["monitored_memo"] != 8 {
		t.Errorf("JSON shape = %s", data)
	}
}

func TestOpsCountersConcurrent(t *testing.T) {
	var c OpsCounters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Shed.Add(1)
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().Shed; got != 8000 {
		t.Errorf("shed = %d, want 8000", got)
	}
}
