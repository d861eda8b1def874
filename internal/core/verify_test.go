package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv/trace"
)

// breakPass swaps the last And/Or gate in topological order for its
// complement (Nand/Nor over the same fanins): a rewrite that changes the
// circuit function, which per-pass verification must catch.
var breakPass = Pass{
	Name: "break", Level: "logic",
	Description: "function-changing rewrite (test)",
	Run: func(nw *logic.Network, ctx *Context) error {
		order, err := nw.TopoOrder()
		if err != nil {
			return err
		}
		target := logic.InvalidNode
		for _, id := range order {
			if t := nw.Node(id).Type; t == logic.And || t == logic.Or {
				target = id
			}
		}
		n := nw.Node(target)
		inv := logic.Nand
		if n.Type == logic.Or {
			inv = logic.Nor
		}
		g, err := nw.AddGate("broken", inv, n.Fanin...)
		if err != nil {
			return err
		}
		return nw.ReplaceNode(target, g)
	},
}

// TestVerifyCatchesBrokenPassAt17Inputs: radd8 has 17 inputs, beyond the
// old 16-input cut-off, so a function-changing pass used to go unnoticed.
func TestVerifyCatchesBrokenPassAt17Inputs(t *testing.T) {
	nw, err := circuits.RippleAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(nw.PIs()); n != 17 {
		t.Fatalf("radd8 has %d inputs, want 17", n)
	}
	fctx := NewContext(nw, 1)
	fctx.ExtraPasses = map[string]Pass{"break": breakPass}
	_, err = RunFlowCtx(context.Background(), nw, Flow{Name: "broken", Passes: []string{"strash", "break"}}, fctx)
	if err == nil || !strings.Contains(err.Error(), `pass "break" changed the circuit function`) {
		t.Fatalf("flow with a function-changing pass: err = %v", err)
	}
}

// seqToggle builds a one-flip-flop toggle machine: q' = x xor q.
func seqToggle(t *testing.T) *logic.Network {
	t.Helper()
	nw := logic.New("seq")
	x := nw.MustInput("x")
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	d := nw.MustGate("d", logic.Xor, x, q)
	if err := nw.ReplaceFanin(q, c0, d); err != nil {
		t.Fatal(err)
	}
	if err := nw.DeleteNode(c0); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestPassSpanVerify pins the per-pass verification record, the report's
// Verified summary and the verify trace span for each way a flow is
// checked or skipped.
func TestPassSpanVerify(t *testing.T) {
	radd := func(n int) func(*testing.T) *logic.Network {
		return func(t *testing.T) *logic.Network {
			nw, err := circuits.RippleAdder(n)
			if err != nil {
				t.Fatal(err)
			}
			return nw
		}
	}
	for _, c := range []struct {
		name   string
		build  func(*testing.T) *logic.Network
		verify bool
		want   string
		blocks int
	}{
		{"radd8", radd(8), true, "exhaustive", 1 << 11},
		{"radd2", radd(2), true, "exhaustive", 1},
		{"off", radd(8), false, "skipped: off", 0},
		{"sequential", seqToggle, true, "skipped: sequential", 0},
		{"radd10", radd(10), true, "skipped: >20 inputs", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw := c.build(t)
			fctx := NewContext(nw, 1)
			fctx.Verify = c.verify
			ctx, root := trace.New(context.Background(), "test")
			flow := StandardFlows()["glitch"]
			rep, err := RunFlowCtx(ctx, nw, flow, fctx)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range rep.Spans {
				if s.Verify != c.want {
					t.Errorf("pass %s: Verify = %q, want %q", s.Name, s.Verify, c.want)
				}
			}
			if got := rep.Verified(); got != (c.want == "exhaustive") {
				t.Errorf("Verified() = %v for %q", got, c.want)
			}
			var spans []trace.SpanData
			for _, sd := range root.Tracer().Snapshot() {
				if sd.Name == "verify" {
					spans = append(spans, sd)
				}
			}
			if len(spans) != len(flow.Passes) {
				t.Fatalf("%d verify spans for %d passes", len(spans), len(flow.Passes))
			}
			for i, sd := range spans {
				if sd.Attrs["pass"] != flow.Passes[i] || sd.Attrs["method"] != c.want || sd.Attrs["blocks"] != c.blocks {
					t.Errorf("verify span %d attrs %v, want pass %s method %q blocks %d", i, sd.Attrs, flow.Passes[i], c.want, c.blocks)
				}
			}
		})
	}
}
