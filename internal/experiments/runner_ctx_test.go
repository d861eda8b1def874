package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeExperiments builds cheap synthetic experiments so the robustness
// paths (panic, cancellation, deadline) are testable without regenerating
// real tables.
func fakeTable(id string) *Table {
	t := &Table{ID: id, Title: id + " synthetic"}
	t.Note("ok")
	return t
}

func TestRunAllCtxRecoversPanics(t *testing.T) {
	list := []Experiment{
		{ID: "OK1", Run: func() (*Table, error) { return fakeTable("OK1"), nil }},
		{ID: "BOOM", Run: func() (*Table, error) { panic("table exploded") }},
		{ID: "OK2", Run: func() (*Table, error) { return fakeTable("OK2"), nil }},
	}
	res := RunAll(context.Background(), list, 3, 0)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy experiments failed: %v, %v", res[0].Err, res[2].Err)
	}
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("BOOM error %v (%T) is not a *PanicError", res[1].Err, res[1].Err)
	}
	if pe.ID != "BOOM" || pe.Stack == "" {
		t.Fatalf("panic record incomplete: %+v", pe)
	}
}

func TestRunAllCtxPreCancelledSkipsAll(t *testing.T) {
	ran := false
	list := []Experiment{
		{ID: "A", Run: func() (*Table, error) { ran = true; return fakeTable("A"), nil }},
		{ID: "B", Run: func() (*Table, error) { ran = true; return fakeTable("B"), nil }},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunAll(ctx, list, 2, 0)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2 (shape must survive cancellation)", len(res))
	}
	for _, r := range res {
		if !r.Skipped || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%s not skipped on pre-cancelled context: %+v", r.ID, r)
		}
		if r.Table != nil {
			t.Fatalf("%s: skipped experiment produced a table", r.ID)
		}
	}
	if ran {
		t.Fatal("an experiment ran despite a pre-cancelled context")
	}
}

// TestRunAllCtxInFlightFinishes: an experiment that is already running
// when the context dies is allowed to complete — cancellation is a
// start-boundary check, not a preemption.
func TestRunAllCtxInFlightFinishes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	list := []Experiment{
		{ID: "MID", Run: func() (*Table, error) {
			cancel() // dies mid-run, after the start-boundary check passed
			return fakeTable("MID"), nil
		}},
	}
	res := RunAll(ctx, list, 1, 0)
	if res[0].Err != nil || res[0].Table == nil || res[0].Skipped {
		t.Fatalf("in-flight experiment must finish: %+v", res[0])
	}
}

func TestRunAllCtxPerTimeoutFlags(t *testing.T) {
	list := []Experiment{
		{ID: "SLEEPY", Run: func() (*Table, error) {
			time.Sleep(20 * time.Millisecond)
			return fakeTable("SLEEPY"), nil
		}},
	}
	res := RunAll(context.Background(), list, 1, time.Millisecond)
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("over-budget experiment err = %v, want DeadlineExceeded", res[0].Err)
	}
	if res[0].Table == nil {
		t.Fatal("over-budget experiment's table was discarded")
	}
}
