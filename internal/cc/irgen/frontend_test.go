package irgen_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/cc/token"
	"regpromo/internal/ir"
)

const diagGolden = "testdata/diagnostics_golden.txt"

// frontend runs lexer, parser, sema and irgen over src, stopping at the
// first error.
func frontend(src string) error {
	file, err := parser.Parse("t.c", src)
	if err != nil {
		return err
	}
	prog, err := sema.Check(file)
	if err != nil {
		return err
	}
	_, err = irgen.Generate(prog)
	return err
}

// diagCase is one golden line: a malformed source and the exact text
// of the error the front end reports for it.
type diagCase struct {
	src, want string
}

// readDiagGolden parses the golden table. Each line holds a
// Go-quoted source, a tab, and the expected err.Error() text; blank
// lines and lines starting with '#' are comments.
func readDiagGolden(t testing.TB) []diagCase {
	t.Helper()
	raw, err := os.ReadFile(diagGolden)
	if err != nil {
		t.Fatalf("read diagnostics golden: %v", err)
	}
	var cases []diagCase
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		q, err := strconv.QuotedPrefix(line)
		if err != nil {
			t.Fatalf("%s:%d: %v", diagGolden, i+1, err)
		}
		src, _ := strconv.Unquote(q)
		want, ok := strings.CutPrefix(line[len(q):], "\t")
		if !ok {
			t.Fatalf("%s:%d: no tab after the quoted source", diagGolden, i+1)
		}
		cases = append(cases, diagCase{src, want})
	}
	return cases
}

// TestDiagnosticsGolden pins the exact text of front-end diagnostics:
// every lexer error, "expected X, found Y" for each kind of token Y,
// and a few parser and sema errors.
func TestDiagnosticsGolden(t *testing.T) {
	cases := readDiagGolden(t)
	var got []string
	bad := 0
	for _, c := range cases {
		err := frontend(c.src)
		text := "<nil>"
		if err != nil {
			text = err.Error()
		}
		if text != c.want {
			t.Errorf("%q:\n got %s\nwant %s", c.src, text, c.want)
			bad++
		}
		got = append(got, strconv.Quote(c.src)+"\t"+text)
	}
	if bad > 0 {
		t.Logf("current diagnostics:\n%s", strings.Join(got, "\n"))
	}
}

// suiteSources returns the C text of the benchmark suite programs.
func suiteSources(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../../bench/programs/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no suite sources: %v", err)
	}
	srcs := make(map[string]string, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(raw)
	}
	return srcs
}

// FuzzFrontend feeds arbitrary text through lexer, parser, sema and
// irgen. Each stage must return a result or an error, never panic, and
// the tokens must lie in order in the source, without overlap, at the
// line and column their offsets give.
func FuzzFrontend(f *testing.F) {
	for _, src := range suiteSources(f) {
		f.Add(src)
	}
	for _, c := range readDiagGolden(f) {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkTokens(t, src)
		_ = frontend(src)
	})
}

// checkTokens checks the spans and positions of src's tokens, and that
// every literal decodes.
func checkTokens(t *testing.T, src string) {
	toks, err := lexer.Tokenize("f.c", src)
	if err != nil {
		return
	}
	line, col, at := int32(1), int32(1), 0
	for i, tok := range toks {
		if int(tok.Off) < at || tok.Len < 0 || int(tok.Off+tok.Len) > len(src) {
			t.Fatalf("token %d (%v) spans [%d,+%d), previous token ends at %d, source is %d bytes",
				i, tok.Kind, tok.Off, tok.Len, at, len(src))
		}
		for ; at < int(tok.Off); at++ {
			col++
			if src[at] == '\n' {
				line, col = line+1, 1
			}
		}
		if tok.Line != line || tok.Col != col {
			t.Fatalf("token %d (%v) at offset %d reports %d:%d, want %d:%d",
				i, tok.Kind, tok.Off, tok.Line, tok.Col, line, col)
		}
		lexer.Decode(src, tok)
		for ; at < int(tok.Off+tok.Len); at++ {
			col++
			if src[at] == '\n' {
				line, col = line+1, 1
			}
		}
	}
	if eof := toks[len(toks)-1]; eof.Kind != token.EOF || int(eof.Off) != len(src) || eof.Len != 0 {
		t.Fatalf("last token %+v, want an empty EOF at offset %d", eof, len(src))
	}
}

// TestGeneratedBlocksDoNotAlias generates the suite and checks that
// every block's instruction slice ends at its own length, so appending
// to a block never writes into another block's instructions; a clone
// and RemoveUnreachable over the result keep the IL.
func TestGeneratedBlocksDoNotAlias(t *testing.T) {
	for name, src := range suiteSources(t) {
		file, err := parser.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sema.Check(file)
		if err != nil {
			t.Fatal(err)
		}
		m, err := irgen.Generate(prog)
		if err != nil {
			t.Fatal(err)
		}
		want := ir.FormatModule(m)
		clone := m.Clone()

		saved := map[*ir.Block][]ir.Instr{}
		for _, fn := range m.FuncsInOrder() {
			for _, b := range fn.Blocks {
				if cap(b.Instrs) != len(b.Instrs) {
					t.Fatalf("%s: %s.%s has %d instructions and capacity %d",
						name, fn.Name, b.Label, len(b.Instrs), cap(b.Instrs))
				}
				saved[b] = append([]ir.Instr(nil), b.Instrs...)
			}
		}
		for _, fn := range m.FuncsInOrder() {
			for _, b := range fn.Blocks {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpNop})
			}
		}
		for _, fn := range m.FuncsInOrder() {
			for _, b := range fn.Blocks {
				n := len(saved[b])
				if !reflect.DeepEqual(b.Instrs[:n], saved[b]) {
					t.Fatalf("%s: appending to a block changed %s.%s", name, fn.Name, b.Label)
				}
				b.Instrs = b.Instrs[:n]
			}
		}
		for _, fn := range clone.FuncsInOrder() {
			fn.RemoveUnreachable()
		}
		if ir.FormatModule(m) != want || ir.FormatModule(clone) != want {
			t.Fatalf("%s: IL changed", name)
		}
	}
}
