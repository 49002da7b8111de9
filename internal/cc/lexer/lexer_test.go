package lexer

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"regpromo/internal/cc/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatalf("tokenize %q: %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	want = append(want, token.EOF)
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("%q: got %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: token %d = %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdentifiers(t *testing.T) {
	expectKinds(t, "int interior if iffy while",
		token.KwInt, token.Ident, token.KwIf, token.Ident, token.KwWhile)
}

func TestOperators(t *testing.T) {
	expectKinds(t, "a+++b", token.Ident, token.Inc, token.Plus, token.Ident)
	expectKinds(t, "a->b", token.Ident, token.Arrow, token.Ident)
	expectKinds(t, "a<<=b>>=c", token.Ident, token.ShlAssign, token.Ident, token.ShrAssign, token.Ident)
	expectKinds(t, "a<=b<c<<d", token.Ident, token.Le, token.Ident, token.Lt, token.Ident, token.Shl, token.Ident)
	expectKinds(t, "x&&y&z||w", token.Ident, token.AndAnd, token.Ident, token.And, token.Ident, token.OrOr, token.Ident)
	expectKinds(t, "...", token.Ellipsis)
	expectKinds(t, "a %= b ^= c |= d",
		token.Ident, token.PercentAssign, token.Ident, token.XorAssign,
		token.Ident, token.OrAssign, token.Ident)
}

func TestIntegerLiterals(t *testing.T) {
	src := "0 42 0x2A 0xff 100u 200L 300UL"
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 42, 42, 255, 100, 200, 300}
	for i, w := range want {
		if toks[i].Kind != token.IntLit || Decode(src, toks[i]).Int != w {
			t.Fatalf("token %d = %+v, want int %d", i, toks[i], w)
		}
	}
}

func TestFloatLiterals(t *testing.T) {
	src := "1.5 0.25 2e3 1.5e-2 7."
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 0.25, 2000, 0.015, 7}
	for i, w := range want {
		if toks[i].Kind != token.FloatLit || Decode(src, toks[i]).Float != w {
			t.Fatalf("token %d = %+v, want float %g", i, toks[i], w)
		}
	}
}

func TestDotVersusFloat(t *testing.T) {
	expectKinds(t, "a.b", token.Ident, token.Dot, token.Ident)
	toks, _ := Tokenize("t.c", ".5")
	if toks[0].Kind != token.FloatLit || Decode(".5", toks[0]).Float != 0.5 {
		t.Fatalf("got %+v", toks[0])
	}
}

func TestCharLiterals(t *testing.T) {
	src := `'a' '\n' '\0' '\\' '\''`
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{'a', '\n', 0, '\\', '\''}
	for i, w := range want {
		if toks[i].Kind != token.CharLit || Decode(src, toks[i]).Int != w {
			t.Fatalf("token %d = %+v, want char %d", i, toks[i], w)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	src := `"hello", "a\tb"`
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if s := Decode(src, toks[0]).Str; s != "hello" {
		t.Fatalf("got %q", s)
	}
	if s := Decode(src, toks[2]).Str; s != "a\tb" {
		t.Fatalf("got %q", s)
	}
}

func TestAdjacentStringsConcatenate(t *testing.T) {
	src := `"x" "y"  "z"`
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if s := Decode(src, toks[0]).Str; s != "xyz" {
		t.Fatalf("concatenation got %q", s)
	}
	if toks[1].Kind != token.EOF {
		t.Fatalf("expected single token, next = %v", toks[1])
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a /* b c */ d // e\nf",
		token.Ident, token.Ident, token.Ident)
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("t.c", "a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if p := toks[0].Pos("t.c"); p.Line != 1 || p.Col != 1 {
		t.Fatalf("a at %v", p)
	}
	if p := toks[1].Pos("t.c"); p.Line != 2 || p.Col != 3 {
		t.Fatalf("b at %v", p)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"\"unterminated",
		"'a",
		"/* unterminated",
		"#include <stdio.h>",
		"@",
		`'\q'`,
	} {
		if _, err := Tokenize("t.c", src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

// TestTokenIsPointerFree pins the token's layout: scalar fields only,
// so the garbage collector never scans a token slice, in at most 24
// bytes.
func TestTokenIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(token.Token{}); n > 24 {
		t.Errorf("token.Token is %d bytes, want at most 24", n)
	}
	typ := reflect.TypeOf(token.Token{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("token.Token.%s is a %s, want an integer", f.Name, f.Type)
		}
	}
}

// TestTokenSpans checks each token's byte span: a string literal's
// span covers its adjacent literals and what lies between them, and
// EOF is empty at the end of the source.
func TestTokenSpans(t *testing.T) {
	src := "x = 0x1F + \"a\" /* c */ \"b\"; y...\n"
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "=", "0x1F", "+", `"a" /* c */ "b"`, ";", "y", "...", ""}
	if len(toks) != len(want) {
		t.Fatalf("%d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if got := toks[i].Text(src); got != w {
			t.Errorf("token %d spells %q, want %q", i, got, w)
		}
	}
	if eof := toks[len(toks)-1]; eof.Kind != token.EOF || int(eof.Off) != len(src) {
		t.Errorf("EOF token %+v, want offset %d", eof, len(src))
	}
}

// BenchmarkTokenize lexes every benchmark suite program.
func BenchmarkTokenize(b *testing.B) {
	paths, err := filepath.Glob("../../bench/programs/*.c")
	if err != nil || len(paths) == 0 {
		b.Fatalf("no suite sources: %v", err)
	}
	var srcs []string
	size := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, string(raw))
		size += len(raw)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			if _, err := Tokenize(paths[j], src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
