// Package analysis is the reusable dataflow-analysis layer over the Odin IR:
// CFG reachability and dominators (via ir.DomTree), def-use chains, and
// per-block liveness. Results are bundled per function into an Info and can
// be cached across rebuilds keyed on ir.FingerprintSym content hashes (see
// Cache), so the splice path reuses analyses for hash-clean functions
// instead of recomputing them every probe toggle.
//
// The framework deliberately lives outside package ir: ir owns the
// primitives the strict verifier needs (dominator tree, reachability), and
// analysis composes them with the derived facts (uses, liveness) that
// clients like OSR-style state mapping and mutation batching consume.
package analysis

import (
	"odin/internal/ir"
)

// Use is a single operand position consuming a value.
type Use struct {
	User  *ir.Instr // the instruction that consumes the value
	Index int       // operand index within User
}

// Info bundles the per-function analyses. It is a snapshot of the function
// at Analyze time: any mutation of blocks, terminators, or operands
// invalidates it (the Cache handles this by keying on content hashes).
type Info struct {
	Func *ir.Func
	Dom  *ir.DomTree

	// uses maps each SSA value (instruction result or parameter) to the
	// operand positions that consume it, in block/instruction order.
	uses map[ir.Value][]Use

	// liveIn/liveOut per block. Phi semantics are edge-based: a phi operand
	// is live-out of its incoming predecessor, not live-in to the phi's
	// block; phi results are defined at the block head.
	liveIn  map[*ir.Block]map[ir.Value]bool
	liveOut map[*ir.Block]map[ir.Value]bool

	// Verified records whether the function passed strict verification the
	// last time this Info's content hash was checked. The engine's boundary
	// tier uses it to skip re-verifying hash-clean functions.
	Verified bool
}

// Analyze computes the full analysis bundle for f. The function must be
// structurally well-formed (callers verify first or tolerate a panic being
// converted by the verifier's recover).
func Analyze(f *ir.Func) *Info {
	info := &Info{
		Func: f,
		Dom:  ir.NewDomTree(f),
		uses: make(map[ir.Value][]Use),
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				switch op.(type) {
				case *ir.Instr, *ir.Param:
					info.uses[op] = append(info.uses[op], Use{User: in, Index: i})
				}
			}
		}
	}
	info.computeLiveness()
	return info
}

// Uses returns the operand positions consuming v, in block/instruction
// order. The slice is shared; callers must not mutate it.
func (info *Info) Uses(v ir.Value) []Use { return info.uses[v] }

// NumUses returns the number of operand positions consuming v.
func (info *Info) NumUses(v ir.Value) int { return len(info.uses[v]) }

// LiveIn reports whether v is live on entry to b.
func (info *Info) LiveIn(b *ir.Block, v ir.Value) bool { return info.liveIn[b][v] }

// LiveOut reports whether v is live on exit from b.
func (info *Info) LiveOut(b *ir.Block, v ir.Value) bool { return info.liveOut[b][v] }
