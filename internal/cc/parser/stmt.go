package parser

import (
	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

func (p *Parser) parseBlock() (*ast.Block, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	b := &ast.Block{}
	b.SetPos(p.posOf(lb))
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errorf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

// Small constructors that pair allocation with position setting.

func newEmpty(pos token.Pos) *ast.Empty {
	n := &ast.Empty{}
	n.SetPos(pos)
	return n
}

func newReturn(pos token.Pos) *ast.Return {
	n := &ast.Return{}
	n.SetPos(pos)
	return n
}

func newBreak(pos token.Pos) *ast.Break {
	n := &ast.Break{}
	n.SetPos(pos)
	return n
}

func newContinue(pos token.Pos) *ast.Continue {
	n := &ast.Continue{}
	n.SetPos(pos)
	return n
}

func newExprStmt(pos token.Pos) *ast.ExprStmt {
	n := &ast.ExprStmt{}
	n.SetPos(pos)
	return n
}

func newDeclStmt(pos token.Pos) *ast.DeclStmt {
	n := &ast.DeclStmt{}
	n.SetPos(pos)
	return n
}

func newIf(pos token.Pos) *ast.If {
	n := &ast.If{}
	n.SetPos(pos)
	return n
}

func newWhile(pos token.Pos) *ast.While {
	n := &ast.While{}
	n.SetPos(pos)
	return n
}

func newDoWhile(pos token.Pos) *ast.DoWhile {
	n := &ast.DoWhile{}
	n.SetPos(pos)
	return n
}

func newFor(pos token.Pos) *ast.For {
	n := &ast.For{}
	n.SetPos(pos)
	return n
}

func newListExpr(pos token.Pos) *ast.ListExpr {
	n := &ast.ListExpr{}
	n.SetPos(pos)
	return n
}

func (p *Parser) parseStmt() (ast.Stmt, error) {
	pos := p.curPos()
	switch p.cur().Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		p.next()
		return newEmpty(pos), nil
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		p.next()
		r := newReturn(pos)
		if !p.at(token.Semi) {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		_, err := p.expect(token.Semi)
		return r, err
	case token.KwBreak:
		p.next()
		_, err := p.expect(token.Semi)
		return newBreak(pos), err
	case token.KwContinue:
		p.next()
		_, err := p.expect(token.Semi)
		return newContinue(pos), err
	}
	if p.isDeclStart() {
		ds, err := p.parseLocalDecl()
		if err != nil {
			return nil, err
		}
		return ds, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	es := newExprStmt(pos)
	es.X = x
	return es, nil
}

func (p *Parser) parseLocalDecl() (*ast.DeclStmt, error) {
	pos := p.curPos()
	for p.at(token.KwStatic) || p.at(token.KwExtern) {
		p.next()
	}
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ds := newDeclStmt(pos)
	for {
		name, typ, dpos, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if typ.Kind == types.Func {
			return nil, p.errorf("local function declarations are not supported")
		}
		vd := &ast.VarDecl{P: dpos, Name: name, Type: typ}
		if p.accept(token.Assign) {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			if list, ok := init.(*ast.ListExpr); ok {
				vd.InitList = list.Elems
			} else {
				vd.Init = init
			}
		}
		ds.Decls = append(ds.Decls, vd)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *Parser) parseInitializer() (ast.Expr, error) {
	if p.at(token.LBrace) {
		pos := p.curPos()
		p.next()
		list := newListExpr(pos)
		for !p.at(token.RBrace) {
			e, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			list.Elems = append(list.Elems, e)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RBrace); err != nil {
			return nil, err
		}
		return list, nil
	}
	return p.parseAssignExpr()
}

func (p *Parser) parseIf() (ast.Stmt, error) {
	pos := p.curPos()
	p.next() // if
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	node := newIf(pos)
	node.Cond, node.Then = cond, then
	if p.accept(token.KwElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *Parser) parseWhile() (ast.Stmt, error) {
	pos := p.curPos()
	p.next() // while
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	node := newWhile(pos)
	node.Cond, node.Body = cond, body
	return node, nil
}

func (p *Parser) parseDoWhile() (ast.Stmt, error) {
	pos := p.curPos()
	p.next() // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	node := newDoWhile(pos)
	node.Body, node.Cond = body, cond
	return node, nil
}

func (p *Parser) parseFor() (ast.Stmt, error) {
	pos := p.curPos()
	p.next() // for
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	node := newFor(pos)
	if !p.at(token.Semi) {
		if p.isDeclStart() {
			ds, err := p.parseLocalDecl()
			if err != nil {
				return nil, err
			}
			node.Init = ds
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			es := newExprStmt(pos)
			es.X = x
			node.Init = es
			if _, err := p.expect(token.Semi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(token.Semi) {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node.Cond = c
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	if !p.at(token.RParen) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node.Post = post
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	node.Body = body
	return node, nil
}
