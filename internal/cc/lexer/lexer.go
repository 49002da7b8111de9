// Package lexer tokenizes C-subset source text into the token stream
// the recursive-descent parser consumes. It handles the subset's full
// lexical grammar — identifiers and keywords, integer, floating,
// character, and string literals (with the usual escape sequences),
// every multi-character operator, and both comment forms — and
// reports each token with its line and column so front-end errors
// point at source positions.
package lexer

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"regpromo/internal/cc/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans one source file.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int

	// decode makes stringLit build the literal's value; Tokenize
	// leaves it off, so scanning a string allocates nothing.
	decode bool
	// val is the value of the literal scanned last.
	val Literal
}

// Literal is the value of a literal token.
type Literal struct {
	// Int is the value of an IntLit or CharLit token.
	Int int64
	// Float is the value of a FloatLit token.
	Float float64
	// Str is the value of a StringLit token: escapes processed,
	// adjacent literals joined, no terminating NUL.
	Str string
}

// New returns a lexer over src; file names positions in diagnostics.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// bytesPerToken is a low estimate of the source bytes per token, so
// that Tokenize's first allocation holds the whole stream: the suite
// programs average 3.3 to 6, the generated scale module 2.2.
const bytesPerToken = 2

// Tokenize scans the entire input, returning the token stream ending
// in an EOF token.
func Tokenize(file, src string) ([]token.Token, error) {
	if len(src) > math.MaxInt32 {
		// Token offsets are 32-bit.
		return nil, &Error{Pos: token.Pos{File: file, Line: 1, Col: 1}, Msg: "source file too large"}
	}
	lx := New(file, src)
	toks := make([]token.Token, 0, len(src)/bytesPerToken+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

// Decode returns the value of the literal token t, which Tokenize
// scanned from src; any other token gives the zero Literal. It
// re-scans the token's spelling with the scanner that checked it, so
// it cannot fail on a token of src.
func Decode(src string, t token.Token) Literal {
	l := Lexer{src: src, off: int(t.Off), line: int(t.Line), col: int(t.Col), decode: true}
	var err error
	switch t.Kind {
	case token.IntLit, token.FloatLit:
		_, err = l.number(t)
	case token.CharLit:
		err = l.charLit(t)
	case token.StringLit:
		err = l.stringLit(t)
	}
	if err != nil {
		panic(fmt.Sprintf("lexer.Decode: %v token at offset %d was not scanned from this source: %v", t.Kind, t.Off, err))
	}
	return l.val
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf(start, "unterminated block comment")
			}
		case c == '#':
			// Preprocessor lines (e.g. #define used as commentary
			// in the benchmark sources) are not supported; the
			// bench sources avoid them. Treat as an error so
			// mistakes surface early.
			return l.errorf(l.pos(), "preprocessor directives are not supported")
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdent(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token.Token{}, err
	}
	t := token.Token{Line: int32(l.line), Col: int32(l.col), Off: int32(l.off)}
	if l.off >= len(l.src) {
		t.Kind = token.EOF
		return t, nil
	}
	var err error
	switch c := l.peek(); {
	case isIdentStart(c):
		for l.off < len(l.src) && isIdent(l.peek()) {
			l.advance()
		}
		t.Kind = token.Ident
		if kw, ok := token.Keywords[l.src[t.Off:l.off]]; ok {
			t.Kind = kw
		}
	case isDigit(c), c == '.' && isDigit(l.peek2()):
		t.Kind, err = l.number(t)
	case c == '\'':
		t.Kind, err = token.CharLit, l.charLit(t)
	case c == '"':
		t.Kind, err = token.StringLit, l.stringLit(t)
	default:
		t.Kind, err = l.operator(t)
	}
	if err != nil {
		return token.Token{}, err
	}
	t.Len = int32(l.off) - t.Off
	return t, nil
}

// number scans the numeric literal starting token t, leaving its value
// in l.val.
func (l *Lexer) number(t token.Token) (token.Kind, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
		v, err := strconv.ParseUint(l.src[start+2:l.off], 16, 64)
		if err != nil {
			return 0, l.errorf(t.Pos(l.file), "bad hex literal %q", l.src[start:l.off])
		}
		l.skipIntSuffix()
		l.val.Int = int64(v)
		return token.IntLit, nil
	}
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		if n := l.peek2(); isDigit(n) || ((n == '+' || n == '-') && l.off+2 < len(l.src) && isDigit(l.src[l.off+2])) {
			isFloat = true
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	text := l.src[start:l.off]
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return 0, l.errorf(t.Pos(l.file), "bad float literal %q", text)
		}
		l.val.Float = v
		return token.FloatLit, nil
	}
	v, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return 0, l.errorf(t.Pos(l.file), "bad integer literal %q", text)
	}
	l.skipIntSuffix()
	l.val.Int = int64(v)
	return token.IntLit, nil
}

// skipIntSuffix consumes C integer suffixes (u, l, ul, …), which the
// subset accepts and ignores.
func (l *Lexer) skipIntSuffix() {
	for l.off < len(l.src) {
		switch l.peek() {
		case 'u', 'U', 'l', 'L':
			l.advance()
		default:
			return
		}
	}
}

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *Lexer) escape(t token.Token) (byte, error) {
	if l.off >= len(l.src) {
		return 0, l.errorf(t.Pos(l.file), "unterminated escape")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	case 'b':
		return '\b', nil
	case 'a':
		return 7, nil
	case 'f':
		return '\f', nil
	case 'v':
		return '\v', nil
	}
	return 0, l.errorf(t.Pos(l.file), "unsupported escape \\%c", c)
}

// charLit scans the character literal starting token t, leaving its
// value in l.val.Int.
func (l *Lexer) charLit(t token.Token) error {
	l.advance() // consume '
	if l.off >= len(l.src) {
		return l.errorf(t.Pos(l.file), "unterminated char literal")
	}
	v := l.advance()
	if v == '\\' {
		e, err := l.escape(t)
		if err != nil {
			return err
		}
		v = e
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return l.errorf(t.Pos(l.file), "unterminated char literal")
	}
	l.val.Int = int64(v)
	return nil
}

// stringLit scans the string literal starting token t, together with
// any literals adjacent to it. With l.decode set it leaves their
// joined value in l.val.Str.
func (l *Lexer) stringLit(t token.Token) error {
	var sb strings.Builder
	for {
		l.advance() // consume "
		for {
			if l.off >= len(l.src) {
				return l.errorf(t.Pos(l.file), "unterminated string literal")
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\n' {
				return l.errorf(t.Pos(l.file), "newline in string literal")
			}
			if c == '\\' {
				e, err := l.escape(t)
				if err != nil {
					return err
				}
				c = e
			}
			if l.decode {
				sb.WriteByte(c)
			}
		}
		// Adjacent string literals concatenate, as in C. The token
		// ends at the last closing quote, not after the space that
		// follows it.
		off, line, col := l.off, l.line, l.col
		if err := l.skipSpaceAndComments(); err != nil {
			return err
		}
		if l.peek() != '"' {
			l.off, l.line, l.col = off, line, col
			break
		}
	}
	l.val.Str = sb.String()
	return nil
}

// operator scans the operator or punctuator starting token t.
func (l *Lexer) operator(t token.Token) (token.Kind, error) {
	k, n := operatorAt(l.src[l.off:])
	if n == 0 {
		return 0, l.errorf(t.Pos(l.file), "unexpected character %q", l.peek())
	}
	// No operator spans a newline.
	l.off += n
	l.col += n
	return k, nil
}

// operatorAt returns the operator that s begins with and its length in
// bytes, or length 0 when s begins with none.
func operatorAt(s string) (token.Kind, int) {
	c, c2, c3 := s[0], byte(0), byte(0)
	if len(s) > 1 {
		c2 = s[1]
	}
	if len(s) > 2 {
		c3 = s[2]
	}
	switch c {
	case '(':
		return token.LParen, 1
	case ')':
		return token.RParen, 1
	case '{':
		return token.LBrace, 1
	case '}':
		return token.RBrace, 1
	case '[':
		return token.LBracket, 1
	case ']':
		return token.RBracket, 1
	case ';':
		return token.Semi, 1
	case ',':
		return token.Comma, 1
	case '?':
		return token.Question, 1
	case ':':
		return token.Colon, 1
	case '~':
		return token.Tilde, 1
	case '.':
		if c2 == '.' && c3 == '.' {
			return token.Ellipsis, 3
		}
		return token.Dot, 1
	case '+':
		switch c2 {
		case '+':
			return token.Inc, 2
		case '=':
			return token.PlusAssign, 2
		}
		return token.Plus, 1
	case '-':
		switch c2 {
		case '-':
			return token.Dec, 2
		case '=':
			return token.MinusAssign, 2
		case '>':
			return token.Arrow, 2
		}
		return token.Minus, 1
	case '*':
		if c2 == '=' {
			return token.StarAssign, 2
		}
		return token.Star, 1
	case '/':
		if c2 == '=' {
			return token.SlashAssign, 2
		}
		return token.Slash, 1
	case '%':
		if c2 == '=' {
			return token.PercentAssign, 2
		}
		return token.Percent, 1
	case '=':
		if c2 == '=' {
			return token.Eq, 2
		}
		return token.Assign, 1
	case '!':
		if c2 == '=' {
			return token.NotEq, 2
		}
		return token.Not, 1
	case '<':
		if c2 == '<' {
			if c3 == '=' {
				return token.ShlAssign, 3
			}
			return token.Shl, 2
		}
		if c2 == '=' {
			return token.Le, 2
		}
		return token.Lt, 1
	case '>':
		if c2 == '>' {
			if c3 == '=' {
				return token.ShrAssign, 3
			}
			return token.Shr, 2
		}
		if c2 == '=' {
			return token.Ge, 2
		}
		return token.Gt, 1
	case '&':
		if c2 == '&' {
			return token.AndAnd, 2
		}
		if c2 == '=' {
			return token.AndAssign, 2
		}
		return token.And, 1
	case '|':
		if c2 == '|' {
			return token.OrOr, 2
		}
		if c2 == '=' {
			return token.OrAssign, 2
		}
		return token.Or, 1
	case '^':
		if c2 == '=' {
			return token.XorAssign, 2
		}
		return token.Xor, 1
	}
	return 0, 0
}
