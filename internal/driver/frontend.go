package driver

import (
	"sync/atomic"

	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
)

// Frontend is a reusable front-end artifact: one source file parsed,
// type-checked, and lowered to IL exactly once. Every measurement
// matrix in this repository compiles the same program under several
// configurations; forking each pipeline from a module clone instead of
// re-running the front end per configuration removes the redundant
// parse+sema+irgen work from the measurement loop entirely
// (compile-once sharing).
//
// A Frontend is immutable after construction: Compile hands every
// configuration its own deep copy of the module, so concurrent and
// sequential forks can never disturb each other.
type Frontend struct {
	// Filename is the name the source was parsed under.
	Filename string

	module *ir.Module
	clones atomic.Int64
}

// PassFrontendReuse is the pass name of the fork-from-artifact stage
// that replaces a repeated front-end run under compile-once sharing.
// Its pass span carries the args reused=1 and clones=n.
const PassFrontendReuse = "frontend.reuse"

// ParseSource runs the front end once and returns the reusable
// artifact.
func ParseSource(filename, src string) (*Frontend, error) {
	m, err := frontend(filename, src)
	if err != nil {
		return nil, err
	}
	return &Frontend{Filename: filename, module: m}, nil
}

// frontend parses, type-checks and lowers one source file to IL.
func frontend(filename, src string) (*ir.Module, error) {
	file, err := parser.Parse(filename, src)
	if err != nil {
		return nil, err
	}
	prog, err := sema.Check(file)
	if err != nil {
		return nil, err
	}
	return irgen.Generate(prog)
}

// NewModule forks a fresh deep copy of the artifact's module for one
// pipeline to own and mutate.
func (fe *Frontend) NewModule() *ir.Module {
	fe.clones.Add(1)
	return fe.module.Clone()
}

// Clones reports how many pipelines have been forked from this
// artifact so far.
func (fe *Frontend) Clones() int64 { return fe.clones.Load() }

// Compile forks a pipeline from the artifact: the module is cloned
// (reported to the tracer as "frontend.reuse" — the stage that
// replaces a repeated front-end run) and the configuration's pass list
// runs over the clone. tr may be nil. Safe to call concurrently.
func (fe *Frontend) Compile(cfg Config, tr *obs.Tracer) (*Compilation, error) {
	sp := tr.Start("compile", "compile", 0)
	defer sp.End()
	s := &pipeState{cfg: cfg, c: &Compilation{}, tr: tr}
	if err := s.stage(PassFrontendReuse, 0, func() (map[string]int64, error) {
		s.c.Module = fe.NewModule()
		return map[string]int64{"reused": 1, "clones": fe.Clones()}, nil
	}); err != nil {
		return nil, err
	}
	return s.compilePasses()
}
