package driver

import (
	"strings"

	"regpromo/internal/interp"
	"regpromo/internal/ir"
)

// ParseEngines resolves an engine-list specification from a CLI flag
// into an ordered, deduplicated engine list. Accepted forms:
//
//   - "" or "flat": the flat engine alone
//   - a single engine name ("flat", "switch", "native")
//   - a comma list, e.g. "flat,native"
//   - "both": flat + switch (the historical two-engine matrix)
//   - "all": flat + switch + native
//
// The result names exactly the engines the specification asks for, in
// first-mention order.
// Unknown names are rejected with the canonical diagnostic format
// (ir.Diag, check "engine") so every CLI entry point prints the same
// line for the same typo.
func ParseEngines(spec string) ([]interp.Engine, error) {
	if spec == "" {
		return []interp.Engine{interp.EngineFlat}, nil
	}
	var engines []interp.Engine
	seen := map[interp.Engine]bool{}
	add := func(e interp.Engine) {
		if !seen[e] {
			seen[e] = true
			engines = append(engines, e)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		switch name := strings.TrimSpace(part); name {
		case "both":
			add(interp.EngineFlat)
			add(interp.EngineSwitch)
		case "all":
			add(interp.EngineFlat)
			add(interp.EngineSwitch)
			add(interp.EngineNative)
		default:
			e, err := interp.ParseEngine(name)
			if err != nil {
				return nil, engineDiag(name, "flat, switch, native, both, or all")
			}
			add(e)
		}
	}
	return engines, nil
}

// ParseEngine resolves a single engine name ("flat", "switch", or
// "native"; empty means flat) with the same canonical diagnostic as
// ParseEngines. The list forms ("both", "all", comma lists) are
// rejected — this is the parser for flags that select exactly one
// engine (rpexec -engine).
func ParseEngine(spec string) (interp.Engine, error) {
	if spec == "" {
		return interp.EngineFlat, nil
	}
	e, err := interp.ParseEngine(spec)
	if err != nil {
		return interp.EngineFlat, engineDiag(spec, "flat, switch, or native")
	}
	return e, nil
}

// engineDiag renders the canonical unknown-engine diagnostic.
func engineDiag(name, want string) error {
	return ir.DiagError([]ir.Diag{{
		Check: "engine",
		Index: -1,
		Msg:   `unknown engine "` + name + `" (want ` + want + `)`,
	}})
}
