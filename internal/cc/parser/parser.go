// Package parser implements a recursive-descent parser for the C
// subset. The grammar has no typedefs, so a statement begins a
// declaration exactly when it begins with a type keyword; casts are
// disambiguated the same way.
package parser

import (
	"fmt"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser holds parse state for one translation unit.
type Parser struct {
	src  string
	toks []token.Token
	pos  int

	file    *ast.File
	structs map[string]*types.Type

	// paramNames holds the parameter names of the most recently
	// parsed function declarator, in order.
	paramNames []string
}

// Parse parses one source file.
func Parse(filename, src string) (*ast.File, error) {
	toks, err := lexer.Tokenize(filename, src)
	if err != nil {
		return nil, err
	}
	p := &Parser{
		src:     src,
		toks:    toks,
		file:    &ast.File{Name: filename},
		structs: make(map[string]*types.Type),
	}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.file, nil
}

func (p *Parser) cur() token.Token { return p.toks[p.pos] }
func (p *Parser) peek() token.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

// posOf returns the source position of t.
func (p *Parser) posOf(t token.Token) token.Pos { return t.Pos(p.file.Name) }

// curPos returns the source position of the current token.
func (p *Parser) curPos() token.Pos { return p.posOf(p.toks[p.pos]) }

// text returns the spelling of t.
func (p *Parser) text(t token.Token) string { return t.Text(p.src) }

// tokString renders t for a diagnostic: an identifier's spelling, a
// literal's value, or the kind's spelling.
func (p *Parser) tokString(t token.Token) string {
	switch t.Kind {
	case token.Ident:
		return p.text(t)
	case token.IntLit:
		return fmt.Sprintf("%d", lexer.Decode(p.src, t).Int)
	case token.FloatLit:
		return fmt.Sprintf("%g", lexer.Decode(p.src, t).Float)
	case token.CharLit:
		return fmt.Sprintf("%q", rune(lexer.Decode(p.src, t).Int))
	case token.StringLit:
		return fmt.Sprintf("%q", lexer.Decode(p.src, t).Str)
	}
	return t.Kind.String()
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, p.errorf("expected %s, found %s", k, p.tokString(p.cur()))
	}
	return p.next(), nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.curPos(), Msg: fmt.Sprintf(format, args...)}
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	switch p.cur().Kind {
	case token.KwVoid, token.KwChar, token.KwInt, token.KwLong, token.KwDouble,
		token.KwStruct, token.KwConst, token.KwUnsigned, token.KwEnum:
		return true
	}
	return false
}

func (p *Parser) isDeclStart() bool {
	switch p.cur().Kind {
	case token.KwStatic, token.KwExtern:
		return true
	}
	return p.isTypeStart()
}

// ---------- Top level ----------

func (p *Parser) parseFile() error {
	for !p.at(token.EOF) {
		if err := p.parseTopDecl(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseTopDecl() error {
	// Storage classes are accepted and ignored: the subset compiles
	// whole programs at once, so extern/static linkage does not
	// change behaviour.
	for p.at(token.KwStatic) || p.at(token.KwExtern) {
		p.next()
	}

	switch p.cur().Kind {
	case token.KwStruct:
		// Either a struct definition/declaration or a variable of
		// struct type; look ahead past "struct Name".
		if p.peek().Kind == token.Ident {
			if p.toks[p.pos+2].Kind == token.LBrace || p.toks[p.pos+2].Kind == token.Semi {
				return p.parseStructDecl()
			}
		} else if p.peek().Kind == token.LBrace {
			return p.errorf("anonymous struct types are not supported")
		}
	case token.KwEnum:
		return p.parseEnumDecl()
	}

	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}

	// First declarator decides function vs variables.
	name, typ, pos, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if typ.Kind == types.Func && (p.at(token.LBrace) || p.at(token.Semi)) {
		return p.parseFuncRest(name, typ, pos)
	}

	// Variable declaration list.
	for {
		vd := &ast.VarDecl{P: pos, Name: name, Type: typ}
		if p.accept(token.Assign) {
			init, err := p.parseInitializer()
			if err != nil {
				return err
			}
			if list, ok := init.(*ast.ListExpr); ok {
				vd.InitList = list.Elems
			} else {
				vd.Init = init
			}
		}
		p.file.Globals = append(p.file.Globals, vd)
		p.file.Decls = append(p.file.Decls, vd)
		if !p.accept(token.Comma) {
			break
		}
		name, typ, pos, err = p.parseDeclarator(base)
		if err != nil {
			return err
		}
	}
	_, err = p.expect(token.Semi)
	return err
}

func (p *Parser) parseStructDecl() error {
	pos := p.curPos()
	p.next() // struct
	nameTok, err := p.expect(token.Ident)
	if err != nil {
		return err
	}
	name := p.text(nameTok)
	st, exists := p.structs[name]
	if !exists {
		st = &types.Type{Kind: types.Struct, StructName: name}
		p.structs[name] = st
	}
	if p.accept(token.Semi) {
		// Forward declaration.
		return nil
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return err
	}
	if len(st.Fields) > 0 {
		return &Error{Pos: pos, Msg: fmt.Sprintf("struct %s redefined", name)}
	}
	for !p.at(token.RBrace) {
		base, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		for {
			fname, ftype, fpos, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			if ftype.Kind == types.Func {
				return &Error{Pos: fpos, Msg: "function fields are not supported"}
			}
			st.Fields = append(st.Fields, types.Field{Name: fname, Type: ftype})
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.Semi); err != nil {
			return err
		}
	}
	p.next() // }
	if _, err := p.expect(token.Semi); err != nil {
		return err
	}
	st.LayOut()
	sd := &ast.StructDecl{P: pos, Name: name, Type: st}
	p.file.Structs = append(p.file.Structs, sd)
	p.file.Decls = append(p.file.Decls, sd)
	return nil
}

func (p *Parser) parseEnumDecl() error {
	pos := p.curPos()
	p.next() // enum
	if p.at(token.Ident) {
		p.next() // tag name, ignored
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return err
	}
	ed := &ast.EnumDecl{P: pos}
	var val int64
	for !p.at(token.RBrace) {
		nameTok, err := p.expect(token.Ident)
		if err != nil {
			return err
		}
		if p.accept(token.Assign) {
			v, err := p.parseConstIntExpr()
			if err != nil {
				return err
			}
			val = v
		}
		ed.Names = append(ed.Names, p.text(nameTok))
		ed.Vals = append(ed.Vals, val)
		val++
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return err
	}
	p.file.Enums = append(p.file.Enums, ed)
	p.file.Decls = append(p.file.Decls, ed)
	return nil
}

// parseConstIntExpr parses and folds a constant integer expression as
// far as enum initializers need (literals, optionally negated).
func (p *Parser) parseConstIntExpr() (int64, error) {
	neg := p.accept(token.Minus)
	t, err := p.expect(token.IntLit)
	if err != nil {
		return 0, err
	}
	v := lexer.Decode(p.src, t).Int
	if neg {
		return -v, nil
	}
	return v, nil
}

func (p *Parser) parseFuncRest(name string, sig *types.Type, pos token.Pos) error {
	fd := &ast.FuncDecl{P: pos, Name: name, Result: sig.Elem}
	for i, pt := range sig.Params {
		pn := ""
		if i < len(p.paramNames) {
			pn = p.paramNames[i]
		}
		fd.Params = append(fd.Params, &ast.ParamDecl{P: pos, Name: pn, Type: pt})
	}
	if p.accept(token.Semi) {
		// Prototype only.
		fd.Body = nil
		p.file.Funcs = append(p.file.Funcs, fd)
		p.file.Decls = append(p.file.Decls, fd)
		return nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fd.Body = body
	p.file.Funcs = append(p.file.Funcs, fd)
	p.file.Decls = append(p.file.Decls, fd)
	return nil
}

// ---------- Types and declarators ----------

// parseTypeSpec parses a base type: void/char/int/long/double,
// struct name, with const/unsigned accepted and ignored.
func (p *Parser) parseTypeSpec() (*types.Type, error) {
	for p.accept(token.KwConst) || p.accept(token.KwUnsigned) || p.accept(token.KwStatic) || p.accept(token.KwExtern) {
	}
	switch p.cur().Kind {
	case token.KwVoid:
		p.next()
		return types.VoidType, nil
	case token.KwChar:
		p.next()
		p.accept(token.KwConst)
		return types.CharType, nil
	case token.KwInt:
		p.next()
		return types.IntType, nil
	case token.KwLong:
		p.next()
		p.accept(token.KwInt)  // "long int"
		p.accept(token.KwLong) // "long long"
		p.accept(token.KwInt)
		return types.LongType, nil
	case token.KwDouble:
		p.next()
		return types.DoubleType, nil
	case token.KwStruct:
		p.next()
		nameTok, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		name := p.text(nameTok)
		st, ok := p.structs[name]
		if !ok {
			st = &types.Type{Kind: types.Struct, StructName: name}
			p.structs[name] = st
		}
		return st, nil
	case token.KwEnum:
		p.next()
		if p.at(token.Ident) {
			p.next()
		}
		return types.IntType, nil
	default:
		// "unsigned" or "const" alone means int.
		return types.IntType, nil
	}
}

// declPart is an intermediate declarator component built inside-out.
type declPart struct {
	kind     byte // '*' pointer, '[' array, '(' function
	arrayLen int
	params   []*types.Type
	names    []string
	variadic bool
}

// parseDeclarator parses a C declarator against the given base type
// and returns the declared name and full type. It also records
// parameter names (for function declarators) in p.paramNames.
func (p *Parser) parseDeclarator(base *types.Type) (string, *types.Type, token.Pos, error) {
	pos := p.curPos()
	name, typ, err := p.declarator(base)
	return name, typ, pos, err
}

// declarator parses: pointer* direct-declarator.
func (p *Parser) declarator(base *types.Type) (string, *types.Type, error) {
	for p.accept(token.Star) {
		p.accept(token.KwConst)
		base = types.PointerTo(base)
	}
	return p.directDeclarator(base)
}

// directDeclarator parses: (declarator) | ident, then [n] / (params)
// suffixes. The inner declarator in parentheses binds tighter, so the
// suffixes apply to the base first, then the inner wrapping.
func (p *Parser) directDeclarator(base *types.Type) (string, *types.Type, error) {
	if p.accept(token.LParen) {
		// Parenthesized declarator (e.g. int (*fp)(int)). Parse the
		// inner declarator with a placeholder, apply suffixes to the
		// base, then substitute.
		placeholder := &types.Type{Kind: types.Void}
		name, inner, err := p.declarator(placeholder)
		if err != nil {
			return "", nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return "", nil, err
		}
		full, err := p.declaratorSuffixes(base)
		if err != nil {
			return "", nil, err
		}
		return name, substitute(inner, placeholder, full), nil
	}
	nameTok, err := p.expect(token.Ident)
	if err != nil {
		return "", nil, err
	}
	typ, err := p.declaratorSuffixes(base)
	if err != nil {
		return "", nil, err
	}
	return p.text(nameTok), typ, nil
}

// substitute replaces the placeholder leaf in t with repl, returning
// the rebuilt type.
func substitute(t, placeholder, repl *types.Type) *types.Type {
	if t == placeholder {
		return repl
	}
	switch t.Kind {
	case types.Pointer:
		return types.PointerTo(substitute(t.Elem, placeholder, repl))
	case types.Array:
		return types.ArrayOf(substitute(t.Elem, placeholder, repl), t.ArrayLen)
	case types.Func:
		return types.FuncOf(substitute(t.Elem, placeholder, repl), t.Params, t.Variadic)
	}
	return t
}

func (p *Parser) declaratorSuffixes(base *types.Type) (*types.Type, error) {
	switch p.cur().Kind {
	case token.LBracket:
		p.next()
		n := 0
		if !p.at(token.RBracket) {
			v, err := p.parseConstIntExpr()
			if err != nil {
				return nil, err
			}
			n = int(v)
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
		elem, err := p.declaratorSuffixes(base)
		if err != nil {
			return nil, err
		}
		return types.ArrayOf(elem, n), nil
	case token.LParen:
		p.next()
		params, names, variadic, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		p.paramNames = names
		return types.FuncOf(base, params, variadic), nil
	}
	return base, nil
}

func (p *Parser) parseParams() ([]*types.Type, []string, bool, error) {
	var params []*types.Type
	var names []string
	variadic := false
	if p.accept(token.RParen) {
		return nil, nil, false, nil
	}
	if p.at(token.KwVoid) && p.peek().Kind == token.RParen {
		p.next()
		p.next()
		return nil, nil, false, nil
	}
	for {
		if p.accept(token.Ellipsis) {
			variadic = true
			break
		}
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, nil, false, err
		}
		name := ""
		typ := base
		for p.accept(token.Star) {
			p.accept(token.KwConst)
			typ = types.PointerTo(typ)
		}
		if p.at(token.Ident) {
			saved := p.paramNames
			var err error
			name, typ, err = p.directDeclarator(typ)
			p.paramNames = saved
			if err != nil {
				return nil, nil, false, err
			}
		} else if p.at(token.LParen) {
			// Unnamed function-pointer parameter.
			saved := p.paramNames
			var err error
			name, typ, err = p.directDeclarator(typ)
			p.paramNames = saved
			if err != nil {
				return nil, nil, false, err
			}
		} else if p.at(token.LBracket) {
			var err error
			typ, err = p.declaratorSuffixes(typ)
			if err != nil {
				return nil, nil, false, err
			}
		}
		// Array parameters decay to pointers.
		if typ.Kind == types.Array {
			typ = types.PointerTo(typ.Elem)
		}
		// Function parameters decay to function pointers.
		if typ.Kind == types.Func {
			typ = types.PointerTo(typ)
		}
		params = append(params, typ)
		names = append(names, name)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, nil, false, err
	}
	return params, names, variadic, nil
}
