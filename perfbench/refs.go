package main

import (
	"embed"
	"fmt"
	"path"
	"strconv"
	"strings"

	"regpromo/internal/bench"
)

// refFiles holds each suite program's expected stdout (<name>.out) and
// exit status (<name>.exit), produced by refs/gen.sh with the host C
// compiler, never with the compiler under test.
//
//go:embed refs/*.out refs/*.exit
var refFiles embed.FS

type reference struct {
	stdout string
	exit   int64
}

func loadReferences(suite []bench.Program) (map[string]reference, error) {
	refs := make(map[string]reference, len(suite))
	for _, p := range suite {
		base := "refs/" + strings.TrimSuffix(path.Base(p.File), ".c")
		out, err := refFiles.ReadFile(base + ".out")
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", p.Name, err)
		}
		st, err := refFiles.ReadFile(base + ".exit")
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", p.Name, err)
		}
		exit, err := strconv.ParseInt(strings.TrimSpace(string(st)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("reference exit status for %s: %w", p.Name, err)
		}
		refs[p.Name] = reference{stdout: string(out), exit: exit}
	}
	return refs, nil
}
