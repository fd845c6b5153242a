package guard

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilBudgetIsNoop(t *testing.T) {
	var b *Budget
	b.Check("x")
	for i := 0; i < 1000; i++ {
		b.Tick("x")
	}
	b.States(1<<30, "x")
	b.BDDNodes(1<<30, "x")
	b.SATConflicts(1<<30, "x")
}

func TestBudgetStates(t *testing.T) {
	b := New(nil, Limits{MaxStates: 10})
	err := Run("enum", func() error {
		b.States(5, "enum")
		b.States(5, "enum")
		b.States(1, "enum") // 11 > 10
		return nil
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Resource != "states" || be.Limit != 10 || be.Stage != "enum" {
		t.Errorf("unexpected BudgetError: %+v", be)
	}
	if !IsBudget(err) {
		t.Error("IsBudget should be true")
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := New(nil, Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := Run("stage", func() error {
		b.Check("stage")
		return nil
	})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "wall-clock" {
		t.Fatalf("err = %v, want wall-clock *BudgetError", err)
	}
}

func TestBudgetTickAmortized(t *testing.T) {
	b := New(nil, Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := Run("loop", func() error {
		for i := 0; i < 10*tickMask; i++ {
			b.Tick("loop")
		}
		return nil
	})
	if !IsBudget(err) {
		t.Fatalf("err = %v, want budget exhaustion from Tick", err)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(ctx, Limits{})
	err := Run("stage", func() error {
		b.Check("stage")
		return nil
	})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("CancelError should unwrap to context.Canceled")
	}
	if !IsBudget(err) {
		t.Error("cancellation counts as budget-class failure")
	}
}

func TestContextDeadlineMerged(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	b := New(ctx, Limits{Timeout: time.Hour})
	if !b.hasDeadline || time.Until(b.deadline) > time.Second {
		t.Error("earlier ctx deadline should win over Timeout")
	}
}

func TestRecoverToCapturesPanic(t *testing.T) {
	err := Run("boom", func() error {
		panic("kaboom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Stage != "boom" || pe.Value != "kaboom" {
		t.Errorf("unexpected PanicError: %+v", pe)
	}
	if pe.Stack == "" {
		t.Error("stack not captured")
	}
	if !IsPanic(err) || IsBudget(err) {
		t.Error("classification wrong")
	}
}

func TestRunPassesThroughErrors(t *testing.T) {
	sentinel := errors.New("plain")
	if err := Run("s", func() error { return sentinel }); err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
	if err := Run("s", func() error { return nil }); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}

func TestDiagnose(t *testing.T) {
	d := Diagnose("engine.explicit", "P.10", "explicit",
		&BudgetError{Resource: "states", Limit: 5, Stage: "enum"})
	if d.Kind != DiagBudget || d.Property != "P.10" || d.Engine != "explicit" {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	d = Diagnose("statemodel", "", "", &PanicError{Stage: "statemodel", Value: "x", Stack: "st"})
	if d.Kind != DiagPanic || d.Stack != "st" {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	d = Diagnose("parse", "", "", errors.New("syntax"))
	if d.Kind != DiagError {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	if d.String() == "" {
		t.Error("empty String()")
	}
}
