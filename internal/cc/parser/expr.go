package parser

import (
	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

// Binary operator precedence, highest binds tightest; 0 marks a kind
// that is not a binary operator. Assignment and ?: are handled
// separately (right-associative).
var binPrec = [token.NumKinds]int{
	token.OrOr:    1,
	token.AndAnd:  2,
	token.Or:      3,
	token.Xor:     4,
	token.And:     5,
	token.Eq:      6,
	token.NotEq:   6,
	token.Lt:      7,
	token.Le:      7,
	token.Gt:      7,
	token.Ge:      7,
	token.Shl:     8,
	token.Shr:     8,
	token.Plus:    9,
	token.Minus:   9,
	token.Star:    10,
	token.Slash:   10,
	token.Percent: 10,
}

// parseExpr parses a full expression including comma-free assignment.
// (The C comma operator is not supported; use separate statements.)
func (p *Parser) parseExpr() (ast.Expr, error) {
	return p.parseAssignExpr()
}

func isAssignOp(k token.Kind) bool {
	switch k {
	case token.Assign, token.PlusAssign, token.MinusAssign, token.StarAssign,
		token.SlashAssign, token.PercentAssign, token.ShlAssign,
		token.ShrAssign, token.AndAssign, token.OrAssign, token.XorAssign:
		return true
	}
	return false
}

func (p *Parser) parseAssignExpr() (ast.Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if !isAssignOp(p.cur().Kind) {
		return lhs, nil
	}
	op := p.next()
	rhs, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	n := &ast.Assign{Op: op.Kind, X: lhs, Y: rhs}
	n.SetPos(p.posOf(op))
	return n, nil
}

func (p *Parser) parseCondExpr() (ast.Expr, error) {
	c, err := p.parseBinaryExpr(1)
	if err != nil {
		return nil, err
	}
	if !p.at(token.Question) {
		return c, nil
	}
	q := p.next()
	x, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	y, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	n := &ast.Cond{C: c, X: x, Y: y}
	n.SetPos(p.posOf(q))
	return n, nil
}

func (p *Parser) parseBinaryExpr(minPrec int) (ast.Expr, error) {
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		// minPrec is at least 1, so a non-operator (0) ends the loop.
		prec := binPrec[p.cur().Kind]
		if prec < minPrec {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		n := &ast.Binary{Op: op.Kind, X: lhs, Y: rhs}
		n.SetPos(p.posOf(op))
		lhs = n
	}
}

func (p *Parser) parseUnaryExpr() (ast.Expr, error) {
	pos := p.curPos()
	switch p.cur().Kind {
	case token.Plus:
		p.next()
		return p.parseUnaryExpr()
	case token.Minus, token.Not, token.Tilde, token.Star, token.And, token.Inc, token.Dec:
		op := p.next()
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		n := &ast.Unary{Op: op.Kind, X: x}
		n.SetPos(pos)
		return n, nil
	case token.KwSizeof:
		p.next()
		n := &ast.SizeofExpr{}
		n.SetPos(pos)
		if p.at(token.LParen) && p.typeStartsAt(p.pos+1) {
			p.next() // (
			t, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			n.OfType = t
			return n, nil
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		n.Arg = x
		return n, nil
	case token.LParen:
		if p.typeStartsAt(p.pos + 1) {
			p.next() // (
			t, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			n := &ast.Cast{To: t, X: x}
			n.SetPos(pos)
			return n, nil
		}
	}
	return p.parsePostfixExpr()
}

// typeStartsAt reports whether the token at index i begins a type
// name. With no typedefs, type keywords decide exactly.
func (p *Parser) typeStartsAt(i int) bool {
	if i >= len(p.toks) {
		return false
	}
	switch p.toks[i].Kind {
	case token.KwVoid, token.KwChar, token.KwInt, token.KwLong, token.KwDouble,
		token.KwStruct, token.KwConst, token.KwUnsigned:
		return true
	}
	return false
}

// parseTypeName parses an abstract type name: base type plus * [] ()
// derivations without an identifier (e.g. "int", "char*", "struct s**",
// "int(*)(int)").
func (p *Parser) parseTypeName() (*types.Type, error) {
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	for p.accept(token.Star) {
		p.accept(token.KwConst)
		base = types.PointerTo(base)
	}
	if p.at(token.LParen) && p.peek().Kind == token.Star {
		// Abstract function-pointer: base (*)(params)
		p.next() // (
		p.next() // *
		for p.accept(token.Star) {
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		params, _, variadic, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		return types.PointerTo(types.FuncOf(base, params, variadic)), nil
	}
	for p.at(token.LBracket) {
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
		base = types.ArrayOf(base, n)
	}
	return base, nil
}

func (p *Parser) parsePostfixExpr() (ast.Expr, error) {
	x, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.curPos()
		switch p.cur().Kind {
		case token.LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			n := &ast.Index{X: x, I: idx}
			n.SetPos(pos)
			x = n
		case token.LParen:
			p.next()
			call := &ast.Call{Fun: x}
			call.SetPos(pos)
			for !p.at(token.RParen) {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			x = call
		case token.Dot, token.Arrow:
			arrow := p.next().Kind == token.Arrow
			nameTok, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			n := &ast.Member{X: x, Name: p.text(nameTok), Arrow: arrow}
			n.SetPos(pos)
			x = n
		case token.Inc, token.Dec:
			op := p.next()
			n := &ast.Postfix{Op: op.Kind, X: x}
			n.SetPos(pos)
			x = n
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimaryExpr() (ast.Expr, error) {
	pos := p.curPos()
	switch p.cur().Kind {
	case token.IntLit, token.CharLit:
		n := &ast.IntLit{Value: lexer.Decode(p.src, p.next()).Int}
		n.SetPos(pos)
		return n, nil
	case token.FloatLit:
		n := &ast.FloatLit{Value: lexer.Decode(p.src, p.next()).Float}
		n.SetPos(pos)
		return n, nil
	case token.StringLit:
		n := &ast.StringLit{Value: lexer.Decode(p.src, p.next()).Str}
		n.SetPos(pos)
		return n, nil
	case token.Ident:
		n := &ast.Ident{Name: p.text(p.next())}
		n.SetPos(pos)
		return n, nil
	case token.LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errorf("expected expression, found %s", p.tokString(p.cur()))
}
