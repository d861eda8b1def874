package bdd

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/circuits"
)

// buildParity constructs the n-variable parity function, whose BDD has
// 2n-1 internal nodes — a convenient knob for budget tests.
func buildParity(m *Manager, n int) Ref {
	f := False
	for i := 0; i < n; i++ {
		f = m.Xor(f, m.Var(i))
	}
	return f
}

func TestBudgetNodeCapTrips(t *testing.T) {
	m := New(16)
	m.SetBudget(Budget{MaxNodes: 8})
	buildParity(m, 16)
	err := m.Err()
	if err == nil {
		t.Fatal("node budget of 8 did not trip on 16-var parity")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error %v does not match ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not *BudgetError", err)
	}
	if be.Reason != "nodes" {
		t.Fatalf("reason = %q, want nodes", be.Reason)
	}
}

func TestBudgetStepCapTrips(t *testing.T) {
	m := New(16)
	m.SetBudget(Budget{MaxSteps: 10})
	buildParity(m, 16)
	err := m.Err()
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != "steps" {
		t.Fatalf("step budget error = %v, want *BudgetError{Reason: steps}", err)
	}
}

func TestBudgetPoisonedManagerReturnsFalse(t *testing.T) {
	m := New(8)
	m.SetBudget(Budget{MaxNodes: 4})
	buildParity(m, 8)
	if m.Err() == nil {
		t.Fatal("budget did not trip")
	}
	nodesAfter := m.Size()
	// Every further operation is a cheap no-op returning False.
	for i := 0; i < 100; i++ {
		if r := m.And(m.Var(0), m.Var(1)); r != False {
			t.Fatalf("poisoned manager returned %d, want False", r)
		}
	}
	if m.Size() != nodesAfter {
		t.Fatalf("poisoned manager grew from %d to %d nodes", nodesAfter, m.Size())
	}
}

// TestBudgetUnhitIsIdentical is the bit-identity guarantee: a budget that
// never trips must yield exactly the same node graph, refs included, as no
// budget at all.
func TestBudgetUnhitIsIdentical(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FromNetwork(context.Background(), nw, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := FromNetwork(context.Background(), nw, BuildOptions{Budget: Budget{MaxNodes: 1 << 20, MaxSteps: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.M.Size() != budgeted.M.Size() {
		t.Fatalf("node counts differ: %d vs %d", plain.M.Size(), budgeted.M.Size())
	}
	for id, f := range plain.Fn {
		if budgeted.Fn[id] != f {
			t.Fatalf("node %d: ref %d (plain) vs %d (budgeted)", id, f, budgeted.Fn[id])
		}
	}
}

func TestFromNetworkCtxBudgetTrips(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = FromNetwork(context.Background(), nw, BuildOptions{Budget: Budget{MaxNodes: 16}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("tiny node budget: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestFromNetworkCtxCancellation(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FromNetwork(ctx, nw, BuildOptions{}); err == nil {
		t.Fatal("cancelled context did not abort FromNetwork")
	}
}

func TestFromNetworkCtxDeadline(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // guarantee the deadline has passed
	if _, err := FromNetwork(ctx, nw, BuildOptions{}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expired deadline: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestSetContextClassifiesByCancellability is the wrapped-context
// regression: SetContext used to compare ctx against
// context.Background()/context.TODO() by identity, so a value-only
// wrapper (what the server's trace middleware installs around every
// request, and what trace.Start produces inside the engines) was
// misclassified as cancellable and armed the per-step polling path —
// and, conversely, the "no limits set" fast path (checked=false) was
// lost. Cancellability must be decided by ctx.Done() == nil.
func TestSetContextClassifiesByCancellability(t *testing.T) {
	type ctxKey struct{}
	uncancellable := []struct {
		name string
		ctx  context.Context
	}{
		{"nil", nil},
		{"background", context.Background()},
		{"todo", context.TODO()},
		{"value-wrapped background", context.WithValue(context.Background(), ctxKey{}, 42)},
		{"doubly wrapped", context.WithValue(context.WithValue(context.Background(), ctxKey{}, 1), ctxKey{}, 2)},
	}
	for _, tc := range uncancellable {
		m := New(4)
		m.SetContext(tc.ctx)
		if m.ctx != nil {
			t.Errorf("%s: SetContext kept a context that can never be cancelled", tc.name)
		}
		if m.checked {
			t.Errorf("%s: checked=true with no budget and an uncancellable context", tc.name)
		}
	}

	// Genuinely cancellable contexts must be kept — including ones whose
	// cancellation is hidden under value wrappers.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"cancellable", cctx},
		{"value-wrapped cancellable", context.WithValue(cctx, ctxKey{}, 42)},
	} {
		m := New(4)
		m.SetContext(tc.ctx)
		if m.ctx == nil || !m.checked {
			t.Errorf("%s: SetContext dropped a cancellable context (ctx=%v checked=%v)", tc.name, m.ctx, m.checked)
		}
	}

	// End-to-end: a value-wrapped no-deadline context must behave exactly
	// like Background — same nodes, no polling error.
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FromNetwork(context.Background(), nw, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := FromNetwork(context.WithValue(context.Background(), ctxKey{}, "trace"), nw, BuildOptions{})
	if err != nil {
		t.Fatalf("value-wrapped background context errored: %v", err)
	}
	if plain.M.Size() != wrapped.M.Size() {
		t.Fatalf("wrapped-context build diverged: %d nodes vs %d", wrapped.M.Size(), plain.M.Size())
	}
}
