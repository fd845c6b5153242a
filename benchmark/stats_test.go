package main

import (
	"os"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.66, 66}, {0.001, 1}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 0.99); got != 4 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, {999, 0.98, true}, {20000, 0.99, true},
		{30, 0.66, true}, {20, 0.5, true}, {19, 0, false}, {0, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeNeedsATail(t *testing.T) {
	var l latencies
	for i := 0; i < 19; i++ {
		l.add(time.Millisecond)
	}
	if _, err := l.summarize(); err == nil {
		t.Fatal("19 samples summarized; a tail needs 20")
	}
	l.add(3 * time.Millisecond)
	s, err := l.summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.p50 != 1 || s.tail != 1 || s.tailQ != 0.5 {
		t.Fatalf("summary %+v", s)
	}
}

func TestVerdictRuleMatchesTheMarketTests(t *testing.T) {
	flagged := input{id: "TP6", want: []string{"P.13", "S.1"}}
	if err := flagged.checkVerdict([]string{"S.1", "P.13", "ND"}); err != nil {
		t.Errorf("a flagged app may report more than its Table 3 IDs: %v", err)
	}
	if err := flagged.checkVerdict([]string{"S.1"}); err == nil {
		t.Error("a flagged app missing P.13 passed")
	}
	clean := input{id: "O1", exact: true}
	if err := clean.checkVerdict(nil); err != nil {
		t.Error(err)
	}
	if err := clean.checkVerdict([]string{"S.2"}); err == nil {
		t.Error("a clean app reporting S.2 passed")
	}
}

func TestPidCPUAgreesWithRusage(t *testing.T) {
	spin := time.Now()
	for x := 0; time.Since(spin) < 50*time.Millisecond; x++ {
	}
	got, err := pidCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	self := selfCPU() // read later, and counts exited threads too
	if got.total < 40*time.Millisecond || got.total > self.total {
		t.Fatalf("pidCPU(self) = %v after a 50 ms spin; getrusage says %v", got, self)
	}
	if got.user < 30*time.Millisecond || got.user > got.total {
		t.Fatalf("pidCPU(self) user time %v of %v after a 50 ms spin in user mode", got.user, got.total)
	}
}

func TestCalibrationGivesAHostSpeed(t *testing.T) {
	c := startCalibrator(1)
	s := c.speed(c.mark())
	c.finish()
	t.Logf("host speed %.3f, kernel median %.3f ms", s, refKernelMs/s)
	if s <= 0 || s > 100 {
		t.Fatalf("host speed %v", s)
	}
}
