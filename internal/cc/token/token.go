// Package token defines the lexical tokens of the C subset accepted by
// the front end.
package token

import "fmt"

// Kind identifies a token class.
type Kind uint8

const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit

	// Keywords.
	KwBreak
	KwChar
	KwConst
	KwContinue
	KwDo
	KwDouble
	KwElse
	KwEnum
	KwExtern
	KwFor
	KwIf
	KwInt
	KwLong
	KwReturn
	KwSizeof
	KwStatic
	KwStruct
	KwUnsigned
	KwVoid
	KwWhile

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Dot      // .
	Arrow    // ->
	Ellipsis // ...

	Assign     // =
	PlusAssign // +=
	MinusAssign
	StarAssign
	SlashAssign
	PercentAssign
	ShlAssign
	ShrAssign
	AndAssign
	OrAssign
	XorAssign

	Question // ?
	Colon    // :

	OrOr   // ||
	AndAnd // &&
	Or     // |
	Xor    // ^
	And    // &
	Eq     // ==
	NotEq  // !=
	Lt     // <
	Le     // <=
	Gt     // >
	Ge     // >=
	Shl    // <<
	Shr    // >>
	Plus   // +
	Minus  // -
	Star   // *
	Slash  // /
	Percent
	Not   // !
	Tilde // ~
	Inc   // ++
	Dec   // --

	// NumKinds is the number of token kinds, for tables indexed by
	// Kind.
	NumKinds
)

var names = [NumKinds]string{
	EOF: "EOF", Ident: "identifier", IntLit: "integer literal",
	FloatLit: "float literal", CharLit: "char literal", StringLit: "string literal",
	KwBreak: "break", KwChar: "char", KwConst: "const", KwContinue: "continue",
	KwDo: "do", KwDouble: "double", KwElse: "else", KwEnum: "enum",
	KwExtern: "extern", KwFor: "for", KwIf: "if", KwInt: "int", KwLong: "long",
	KwReturn: "return", KwSizeof: "sizeof", KwStatic: "static",
	KwStruct: "struct", KwUnsigned: "unsigned", KwVoid: "void", KwWhile: "while",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBracket: "[",
	RBracket: "]", Semi: ";", Comma: ",", Dot: ".", Arrow: "->", Ellipsis: "...",
	Assign: "=", PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=",
	SlashAssign: "/=", PercentAssign: "%=", ShlAssign: "<<=", ShrAssign: ">>=",
	AndAssign: "&=", OrAssign: "|=", XorAssign: "^=",
	Question: "?", Colon: ":", OrOr: "||", AndAnd: "&&", Or: "|", Xor: "^",
	And: "&", Eq: "==", NotEq: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	Shl: "<<", Shr: ">>", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Not: "!", Tilde: "~", Inc: "++", Dec: "--",
}

func (k Kind) String() string {
	if k < NumKinds {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"break": KwBreak, "char": KwChar, "const": KwConst, "continue": KwContinue,
	"do": KwDo, "double": KwDouble, "else": KwElse, "enum": KwEnum,
	"extern": KwExtern, "for": KwFor, "if": KwIf, "int": KwInt, "long": KwLong,
	"return": KwReturn, "sizeof": KwSizeof, "static": KwStatic,
	"struct": KwStruct, "unsigned": KwUnsigned, "void": KwVoid, "while": KwWhile,
}

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is one lexical token: its kind, the line and column where it
// starts, and the byte span [Off, Off+Len) of its spelling in the
// source. It holds no pointer, so the garbage collector never scans a
// token slice. Callers read an identifier's spelling back with Text
// and a literal's value with lexer.Decode.
//
// A string literal's span runs from its first opening quote to its
// last closing quote: adjacent literals, and the space and comments
// between them, form one token.
type Token struct {
	Kind Kind
	Line int32
	Col  int32
	Off  int32
	Len  int32
}

// Text returns the token's spelling in src, the source it was scanned
// from.
func (t Token) Text(src string) string { return src[t.Off : t.Off+t.Len] }

// Pos returns the token's position in the named file.
func (t Token) Pos(file string) Pos {
	return Pos{File: file, Line: int(t.Line), Col: int(t.Col)}
}
