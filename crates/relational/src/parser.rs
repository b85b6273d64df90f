//! Lexer and recursive-descent parser for the predicate / correspondence
//! expression language.
//!
//! The surface syntax is the SQL fragment the paper writes its predicates
//! in: `C.age < 7`, `Children.mid = Parents.ID`, `Kids.ID IS NOT NULL`,
//! `concat(Ph.type, ',', Ph.number)`, `P.salary + P2.salary`.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := and ( OR and )*
//! and     := not ( AND not )*
//! not     := NOT not | cmp
//! cmp     := add ( (= | <> | != | < | <= | > | >=) add
//!               | IS [NOT] NULL
//!               | [NOT] LIKE add
//!               | [NOT] IN ( expr [, expr]* )
//!               | [NOT] BETWEEN add AND add )?
//! add     := mul ( (+ | - | ||) mul )*
//! mul     := unary ( (* | /) unary )*
//! unary   := - unary | primary
//! primary := NULL | TRUE | FALSE | number | 'string'
//!          | ident [ . ident ] | ident ( args )
//!          | CASE (WHEN expr THEN expr)+ [ELSE expr] END
//!          | ( expr )
//! ident   := plain identifier | "double-quoted identifier"
//! ```
//!
//! Identifiers that are not of the plain `[A-Za-z_][A-Za-z0-9_]*` shape
//! (or that collide with a keyword) are written double-quoted, with `""`
//! escaping an embedded quote: `"My Rel".x = 'y'`. Parse errors carry
//! the 1-based line/column of the offending token plus its text (see
//! [`crate::error::Error::Parse`]).

use std::ops::Range;

use crate::constraints::{Constraints, ForeignKey, Key};
use crate::error::{Error, Result};
use crate::expr::{BinOp, Expr};
use crate::schema::{Attribute, ColumnRef, RelSchema};
use crate::value::{DataType, Value};

/// Parse a complete expression from text.
///
/// ```
/// use clio_relational::parser::parse_expr;
///
/// let join = parse_expr("Children.mid = Parents.ID").unwrap();
/// assert_eq!(join.qualifiers(), vec!["Children", "Parents"]);
///
/// let filter = parse_expr("C.age < 7 AND C.name IS NOT NULL").unwrap();
/// assert_eq!(filter.to_string(), "(C.age < 7) AND (C.name IS NOT NULL)");
///
/// // errors carry line/column positions and the offending token
/// let err = parse_expr("C.age < )").unwrap_err();
/// assert!(err.to_string().contains("line 1, column 9"));
/// ```
pub fn parse_expr(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.parse_or()?;
    p.finish()?;
    Ok(e)
}

/// Parse a comma-separated list of expressions (filter lists).
pub fn parse_expr_list(input: &str) -> Result<Vec<Expr>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    if p.peek().is_none() {
        return Ok(out);
    }
    loop {
        out.push(p.parse_or()?);
        if p.peek().is_none() {
            return Ok(out);
        }
        p.expect(&TokenKind::Comma)?;
    }
}

/// Parse one identifier — plain, or double-quoted with `""` escaping an
/// embedded quote — by the lexer's rules: the inverse of
/// [`crate::schema::format_ident`]. For bare names read from text, such
/// as a target attribute.
///
/// ```
/// use clio_relational::parser::parse_ident;
///
/// assert_eq!(parse_ident("ID").unwrap(), "ID");
/// assert_eq!(parse_ident(r#" "ID ""col""" "#).unwrap(), r#"ID "col""#);
/// assert!(parse_ident("ID col").is_err());
/// ```
pub fn parse_ident(input: &str) -> Result<String> {
    let mut p = Parser::new(input)?;
    let name = p.name("an identifier")?;
    p.finish()?;
    Ok(name)
}

/// Parse one relation declaration `Name (attr type [not null], ...)` —
/// the inverse of [`RelSchema`]'s `Display`. It is the one grammar for
/// every relation schema written down: a `relation` line of a
/// `_schema.txt` manifest, the CLI's `--target`, a `_target.txt`, and
/// the head of a `MAP` statement. Names are identifiers by the lexer's
/// rules (quote keywords and names with spaces); `not null` is
/// case-insensitive, the types `int`, `float`, `str` and `bool` are not.
///
/// ```
/// use clio_relational::parser::parse_declaration;
///
/// let kids = parse_declaration(r#"Kids ("ID col" str not null, age int)"#).unwrap();
/// assert_eq!(kids.to_string(), r#"Kids ("ID col" str not null, age int)"#);
/// let err = parse_declaration("Kids (ID col str)").unwrap_err();
/// assert!(err.to_string().contains("line 1, column 10"));
/// ```
pub fn parse_declaration(input: &str) -> Result<RelSchema> {
    let mut p = Parser::new(input)?;
    let schema = p.declaration("target")?;
    p.finish()?;
    Ok(schema)
}

/// Parse a `_schema.txt` manifest — the inverse of
/// [`crate::csv::schema_manifest`] — into relation schemas and
/// constraints. It is a sequence of directives, conventionally one per
/// line: `relation <declaration>`, `key R (a, b)` and
/// `fk A (x) -> B (y)`, every name read as in [`parse_declaration`].
/// A `#` outside a quoted name starts a comment that runs to the end of
/// its line. Errors carry the line and column in the manifest.
pub fn parse_schema_manifest(input: &str) -> Result<(Vec<RelSchema>, Constraints)> {
    let mut p = Parser::new(&blank_comments(input))?;
    let mut schemas = Vec::new();
    let mut constraints = Constraints::none();
    while p.peek().is_some() {
        let directive = p.text_of(p.pos).to_ascii_lowercase();
        p.pos += 1;
        match directive.as_str() {
            "relation" => schemas.push(p.declaration("source")?),
            "key" => {
                let (relation, attrs) = p.name_list()?;
                constraints.keys.push(Key { relation, attrs });
            }
            "fk" => {
                let (from_relation, from_attrs) = p.name_list()?;
                if !(p.eat(&TokenKind::Minus) && p.eat(&TokenKind::Gt)) {
                    return Err(p.err_here("expected `->` between the sides of a foreign key"));
                }
                let (to_relation, to_attrs) = p.name_list()?;
                constraints.foreign_keys.push(ForeignKey {
                    from_relation,
                    from_attrs,
                    to_relation,
                    to_attrs,
                });
            }
            _ => {
                p.pos -= 1;
                return Err(p.err_here("expected a `relation`, `key` or `fk` directive"));
            }
        }
    }
    Ok((schemas, constraints))
}

/// `input` with every `#` comment outside a quoted name or string
/// turned into spaces, so the lexer reports the same line and column
/// for what remains. A doubled quote (the `""`/`''` escape) closes and
/// reopens the quote, which leaves it open as the lexer does.
fn blank_comments(input: &str) -> String {
    let (mut quote, mut comment) = (None, false);
    let blank = |c: char| {
        comment = (comment || quote.is_none() && c == '#') && c != '\n';
        match quote {
            _ if comment => return ' ',
            Some(q) if c == q => quote = None,
            None if c == '"' || c == '\'' => quote = Some(c),
            _ => {}
        }
        c
    };
    input.chars().map(blank).collect()
}

#[derive(Debug, Clone, PartialEq)]
enum TokenKind {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // symbols
    Plus,
    Minus,
    Star,
    Slash,
    ConcatOp,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LParen,
    RParen,
    Comma,
    Dot,
    // keywords
    And,
    Or,
    Not,
    Is,
    Null,
    Like,
    True,
    False,
    In,
    Between,
    Case,
    When,
    Then,
    Else,
    End,
}

impl TokenKind {
    fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => s.clone(),
            TokenKind::Int(i) => i.to_string(),
            TokenKind::Float(f) => f.to_string(),
            TokenKind::Str(s) => format!("'{s}'"),
            TokenKind::Plus => "+".into(),
            TokenKind::Minus => "-".into(),
            TokenKind::Star => "*".into(),
            TokenKind::Slash => "/".into(),
            TokenKind::ConcatOp => "||".into(),
            TokenKind::Eq => "=".into(),
            TokenKind::Ne => "<>".into(),
            TokenKind::Lt => "<".into(),
            TokenKind::Le => "<=".into(),
            TokenKind::Gt => ">".into(),
            TokenKind::Ge => ">=".into(),
            TokenKind::LParen => "(".into(),
            TokenKind::RParen => ")".into(),
            TokenKind::Comma => ",".into(),
            TokenKind::Dot => ".".into(),
            TokenKind::And => "AND".into(),
            TokenKind::Or => "OR".into(),
            TokenKind::Not => "NOT".into(),
            TokenKind::Is => "IS".into(),
            TokenKind::Null => "NULL".into(),
            TokenKind::Like => "LIKE".into(),
            TokenKind::True => "TRUE".into(),
            TokenKind::False => "FALSE".into(),
            TokenKind::In => "IN".into(),
            TokenKind::Between => "BETWEEN".into(),
            TokenKind::Case => "CASE".into(),
            TokenKind::When => "WHEN".into(),
            TokenKind::Then => "THEN".into(),
            TokenKind::Else => "ELSE".into(),
            TokenKind::End => "END".into(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    kind: TokenKind,
    /// Character offset into the input.
    pos: usize,
    /// 1-based line of the token's first character.
    line: usize,
    /// 1-based column (in characters) of the token's first character.
    column: usize,
}

/// Where the input ends, for "end of input" diagnostics.
#[derive(Debug, Clone, Copy)]
struct EndPos {
    pos: usize,
    line: usize,
    column: usize,
}

/// A parse error anchored at an existing token.
fn parse_error_at(tok: &Token, message: String) -> Error {
    Error::Parse {
        pos: tok.pos,
        line: tok.line,
        column: tok.column,
        token: tok.kind.describe(),
        message,
    }
}

/// Is `word` (case-insensitively) a keyword of the expression language?
/// Keyword-shaped identifiers must be double-quoted to be used as names.
pub(crate) fn is_keyword(word: &str) -> bool {
    keyword(word).is_some()
}

fn keyword(word: &str) -> Option<TokenKind> {
    match word.to_ascii_uppercase().as_str() {
        "AND" => Some(TokenKind::And),
        "OR" => Some(TokenKind::Or),
        "NOT" => Some(TokenKind::Not),
        "IS" => Some(TokenKind::Is),
        "NULL" => Some(TokenKind::Null),
        "LIKE" => Some(TokenKind::Like),
        "TRUE" => Some(TokenKind::True),
        "FALSE" => Some(TokenKind::False),
        "IN" => Some(TokenKind::In),
        "BETWEEN" => Some(TokenKind::Between),
        "CASE" => Some(TokenKind::Case),
        "WHEN" => Some(TokenKind::When),
        "THEN" => Some(TokenKind::Then),
        "ELSE" => Some(TokenKind::Else),
        "END" => Some(TokenKind::End),
        _ => None,
    }
}

fn lex(bytes: &[char]) -> Result<(Vec<Token>, EndPos)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut lline = 1usize; // 1-based line of position `i`
    let mut line_start = 0usize; // char offset where the current line begins
    while i < bytes.len() {
        let c = bytes[i];
        let pos = i;
        let line = lline;
        let column = pos - line_start + 1;
        // the lexer's error at the current position, blaming `token`
        let err = |token: &str, message: String| Error::Parse {
            pos,
            line,
            column,
            token: token.into(),
            message,
        };
        match c {
            c if c.is_whitespace() => {
                if c == '\n' {
                    lline += 1;
                    line_start = i + 1;
                }
                i += 1;
            }
            '(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    kind: TokenKind::Dot,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '+' => {
                out.push(Token {
                    kind: TokenKind::Plus,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '-' => {
                out.push(Token {
                    kind: TokenKind::Minus,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '*' => {
                out.push(Token {
                    kind: TokenKind::Star,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '/' => {
                out.push(Token {
                    kind: TokenKind::Slash,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    kind: TokenKind::Eq,
                    pos,
                    line,
                    column,
                });
                i += 1;
            }
            '|' => {
                if bytes.get(i + 1) == Some(&'|') {
                    out.push(Token {
                        kind: TokenKind::ConcatOp,
                        pos,
                        line,
                        column,
                    });
                    i += 2;
                } else {
                    return Err(err("|", "expected `||`".into()));
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token {
                        kind: TokenKind::Ne,
                        pos,
                        line,
                        column,
                    });
                    i += 2;
                } else {
                    return Err(err("!", "expected `!=`".into()));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some('=') => {
                    out.push(Token {
                        kind: TokenKind::Le,
                        pos,
                        line,
                        column,
                    });
                    i += 2;
                }
                Some('>') => {
                    out.push(Token {
                        kind: TokenKind::Ne,
                        pos,
                        line,
                        column,
                    });
                    i += 2;
                }
                _ => {
                    out.push(Token {
                        kind: TokenKind::Lt,
                        pos,
                        line,
                        column,
                    });
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token {
                        kind: TokenKind::Ge,
                        pos,
                        line,
                        column,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: TokenKind::Gt,
                        pos,
                        line,
                        column,
                    });
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(err("'", "unterminated string literal".into())),
                        Some('\'') if bytes.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(c) => {
                            if *c == '\n' {
                                lline += 1;
                                line_start = i + 1;
                            }
                            s.push(*c);
                            i += 1;
                        }
                    }
                }
                out.push(Token {
                    kind: TokenKind::Str(s),
                    pos,
                    line,
                    column,
                });
            }
            '"' => {
                // double-quoted identifier; `""` escapes an embedded quote
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(err("\"", "unterminated quoted identifier".into())),
                        Some('"') if bytes.get(i + 1) == Some(&'"') => {
                            s.push('"');
                            i += 2;
                        }
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some(c) => {
                            if *c == '\n' {
                                lline += 1;
                                line_start = i + 1;
                            }
                            s.push(*c);
                            i += 1;
                        }
                    }
                }
                if s.is_empty() {
                    return Err(err("\"\"", "empty quoted identifier".into()));
                }
                out.push(Token {
                    kind: TokenKind::Ident(s),
                    pos,
                    line,
                    column,
                });
            }
            c if c.is_ascii_digit() => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                // a fractional part requires a digit after '.', so that
                // `R.1x` style errors are caught and `2.attr` never lexes
                if end < bytes.len()
                    && bytes[end] == '.'
                    && bytes.get(end + 1).is_some_and(char::is_ascii_digit)
                {
                    is_float = true;
                    end += 1;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                }
                let text: String = bytes[i..end].iter().collect();
                let kind = if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| err(&text, format!("invalid float `{text}`")))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| err(&text, format!("invalid integer `{text}`")))?,
                    )
                };
                out.push(Token {
                    kind,
                    pos,
                    line,
                    column,
                });
                i = end;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len() && (bytes[end].is_alphanumeric() || bytes[end] == '_') {
                    end += 1;
                }
                let word: String = bytes[i..end].iter().collect();
                let kind = keyword(&word).unwrap_or(TokenKind::Ident(word));
                out.push(Token {
                    kind,
                    pos,
                    line,
                    column,
                });
                i = end;
            }
            other => {
                return Err(err(
                    &other.to_string(),
                    format!("unexpected character `{other}`"),
                ))
            }
        }
    }
    let end = EndPos {
        pos: bytes.len(),
        line: lline,
        column: bytes.len() - line_start + 1,
    };
    Ok((out, end))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    end: EndPos,
    /// The input, for the source text of a token.
    src: Vec<char>,
}

impl Parser {
    /// Lex `input` and stand before its first token.
    fn new(input: &str) -> Result<Parser> {
        let src: Vec<char> = input.chars().collect();
        let (tokens, end) = lex(&src)?;
        Ok(Parser {
            tokens,
            pos: 0,
            end,
            src,
        })
    }

    /// Fail on the first token left unconsumed.
    fn finish(&self) -> Result<()> {
        match self.peek() {
            Some(tok) => Err(parse_error_at(
                tok,
                format!("unexpected trailing input `{}`", tok.kind.describe()),
            )),
            None => Ok(()),
        }
    }

    /// The source text of token `i`, as written: from its first
    /// character up to the next token, less the whitespace between.
    fn text_of(&self, i: usize) -> String {
        let start = self.tokens[i].pos;
        let end = self.tokens.get(i + 1).map_or(self.src.len(), |t| t.pos);
        let text: String = self.src[start..end].iter().collect();
        text.trim_end().to_owned()
    }

    /// The next token as a name (a plain or quoted identifier).
    fn name(&mut self, what: &str) -> Result<String> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            Some(_) => {
                Err(self.err_here(format!("expected {what}, got `{}`", self.text_of(self.pos))))
            }
            None => Err(self.err_here(format!("expected {what}"))),
        }
    }

    /// `Name (attr type [not null], ...)`; see [`parse_declaration`].
    /// `side` (`target` or `source`) names the schema in its errors.
    fn declaration(&mut self, side: &str) -> Result<RelSchema> {
        let usage = format!("{side} schema needs `Name (attr type [not null], ...)`");
        let Some(name_tok) = self.peek().cloned() else {
            return Err(self.err_here(usage));
        };
        let name = self.name(&format!("a {side} relation name"))?;
        let open = match self.peek() {
            Some(t) if t.kind == TokenKind::LParen => t.clone(),
            t => return Err(parse_error_at(t.unwrap_or(&name_tok), usage)),
        };
        let body = self.pos + 1;
        let Some(close) = self.tokens[body..]
            .iter()
            .position(|t| t.kind == TokenKind::RParen)
            .map(|k| body + k)
        else {
            return Err(parse_error_at(
                &open,
                format!("{side} schema missing closing `)`"),
            ));
        };
        let mut attrs = Vec::new();
        let mut start = body;
        for i in body..close {
            if self.tokens[i].kind == TokenKind::Comma {
                attrs.push(self.attribute(start..i, &open, side)?);
                start = i + 1;
            }
        }
        if close > body {
            attrs.push(self.attribute(start..close, &open, side)?);
        }
        self.pos = close + 1;
        RelSchema::new(name, attrs)
    }

    /// One `attr type [not null]` item, tokens `span` of a `side`
    /// declaration whose `(` is `open`.
    fn attribute(&self, span: Range<usize>, open: &Token, side: &str) -> Result<Attribute> {
        let at = span.start;
        let toks = &self.tokens[span.clone()];
        let Some(first) = toks.first() else {
            return Err(parse_error_at(
                open,
                format!("empty attribute in {side} schema"),
            ));
        };
        let TokenKind::Ident(name) = &first.kind else {
            let got = self.text_of(at);
            return Err(parse_error_at(
                first,
                format!("expected an attribute name, got `{got}`"),
            ));
        };
        let Some(ty) = toks.get(1) else {
            return Err(parse_error_at(
                first,
                format!("attribute `{name}` missing type"),
            ));
        };
        // a type is a bare word: `"str"` is a name, not a type
        let bare = matches!(ty.kind, TokenKind::Ident(_)) && self.src[ty.pos] != '"';
        let word = match &ty.kind {
            TokenKind::Ident(word) => word.clone(),
            _ => self.text_of(at + 1),
        };
        let ty = match word.as_str() {
            "int" if bare => DataType::Int,
            "float" if bare => DataType::Float,
            "str" if bare => DataType::Str,
            "bool" if bare => DataType::Bool,
            _ => return Err(parse_error_at(ty, format!("unknown type `{word}`"))),
        };
        match &toks[2..] {
            [] => Ok(Attribute::new(name.clone(), ty)),
            [n, m] if n.kind == TokenKind::Not && m.kind == TokenKind::Null => {
                Ok(Attribute::not_null(name.clone(), ty))
            }
            [first, ..] => {
                let words: Vec<String> = (at + 2..span.end).map(|i| self.text_of(i)).collect();
                Err(parse_error_at(
                    first,
                    format!("unexpected attribute modifier `{}`", words.join(" ")),
                ))
            }
        }
    }

    /// `Name (a, b, ...)`: a relation and some of its attributes, as a
    /// `_schema.txt` key or foreign-key side names them.
    fn name_list(&mut self) -> Result<(String, Vec<String>)> {
        let relation = self.name("a relation name")?;
        self.expect(&TokenKind::LParen)?;
        let mut attrs = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                attrs.push(self.name("an attribute name")?);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(&TokenKind::Comma)?;
            }
        }
        Ok((relation, attrs))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            let found = match self.peek() {
                Some(t) => t.kind.describe(),
                None => "end of input".into(),
            };
            Err(self.err_here(format!("expected `{}`, found `{found}`", kind.describe())))
        }
    }

    fn err_here(&self, message: impl Into<String>) -> Error {
        match self.peek() {
            Some(t) => parse_error_at(t, message.into()),
            None => Error::Parse {
                pos: self.end.pos,
                line: self.end.line,
                column: self.end.column,
                token: String::new(),
                message: message.into(),
            },
        }
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let right = self.parse_not()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Not) {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let left = self.parse_add()?;
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Eq) => Some(BinOp::Eq),
            Some(TokenKind::Ne) => Some(BinOp::Ne),
            Some(TokenKind::Lt) => Some(BinOp::Lt),
            Some(TokenKind::Le) => Some(BinOp::Le),
            Some(TokenKind::Gt) => Some(BinOp::Gt),
            Some(TokenKind::Ge) => Some(BinOp::Ge),
            Some(TokenKind::Like) => Some(BinOp::Like),
            Some(TokenKind::Is) => {
                self.pos += 1;
                let negated = self.eat(&TokenKind::Not);
                self.expect(&TokenKind::Null)?;
                return Ok(Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                });
            }
            Some(TokenKind::In) => {
                self.pos += 1;
                return self.parse_in_tail(left, false);
            }
            Some(TokenKind::Between) => {
                self.pos += 1;
                return self.parse_between_tail(left, false);
            }
            Some(TokenKind::Not) => {
                // NOT LIKE / NOT IN / NOT BETWEEN
                self.pos += 1;
                if self.eat(&TokenKind::In) {
                    return self.parse_in_tail(left, true);
                }
                if self.eat(&TokenKind::Between) {
                    return self.parse_between_tail(left, true);
                }
                self.expect(&TokenKind::Like)?;
                let right = self.parse_add()?;
                return Ok(Expr::Not(Box::new(Expr::binary(BinOp::Like, left, right))));
            }
            _ => None,
        };
        match op {
            None => Ok(left),
            Some(op) => {
                self.pos += 1;
                let right = self.parse_add()?;
                Ok(Expr::binary(op, left, right))
            }
        }
    }

    /// `IN ( expr [, expr]* )` — the opening paren is still pending.
    fn parse_in_tail(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        self.expect(&TokenKind::LParen)?;
        let mut list = Vec::new();
        loop {
            list.push(self.parse_or()?);
            if self.eat(&TokenKind::RParen) {
                break;
            }
            self.expect(&TokenKind::Comma)?;
        }
        Ok(Expr::InList {
            expr: Box::new(left),
            list,
            negated,
        })
    }

    /// `BETWEEN add AND add` — bounds parse at `add` level so the `AND`
    /// separator is unambiguous.
    fn parse_between_tail(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        let low = self.parse_add()?;
        self.expect(&TokenKind::And)?;
        let high = self.parse_add()?;
        Ok(Expr::Between {
            expr: Box::new(left),
            low: Box::new(low),
            high: Box::new(high),
            negated,
        })
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                Some(TokenKind::ConcatOp) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_mul()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            Ok(Expr::Neg(Box::new(self.parse_unary()?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let tok = match self.peek() {
            Some(t) => t.clone(),
            None => return Err(self.err_here("unexpected end of input")),
        };
        match tok.kind {
            TokenKind::Null => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::True => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::False => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Int(i) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(f) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::LParen => {
                self.pos += 1;
                let e = self.parse_or()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Case => {
                self.pos += 1;
                let mut branches = Vec::new();
                while self.eat(&TokenKind::When) {
                    let cond = self.parse_or()?;
                    self.expect(&TokenKind::Then)?;
                    let value = self.parse_or()?;
                    branches.push((cond, value));
                }
                if branches.is_empty() {
                    return Err(self.err_here("CASE requires at least one WHEN branch"));
                }
                let otherwise = if self.eat(&TokenKind::Else) {
                    Some(Box::new(self.parse_or()?))
                } else {
                    None
                };
                self.expect(&TokenKind::End)?;
                Ok(Expr::Case {
                    branches,
                    otherwise,
                })
            }
            TokenKind::Ident(name) => {
                self.pos += 1;
                if self.eat(&TokenKind::LParen) {
                    // function call
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_or()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(&TokenKind::Comma)?;
                        }
                    }
                    Ok(Expr::Func { name, args })
                } else if self.eat(&TokenKind::Dot) {
                    match self.peek().map(|t| t.kind.clone()) {
                        Some(TokenKind::Ident(attr)) => {
                            self.pos += 1;
                            Ok(Expr::Column(ColumnRef::qualified(name, attr)))
                        }
                        _ => Err(self.err_here("expected attribute name after `.`")),
                    }
                } else {
                    Ok(Expr::Column(ColumnRef::bare(name)))
                }
            }
            other => Err(Error::Parse {
                pos: tok.pos,
                line: tok.line,
                column: tok.column,
                token: other.describe(),
                message: format!("unexpected token `{}`", other.describe()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn p(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    #[test]
    fn parses_paper_join_predicates() {
        assert_eq!(
            p("Children.mid = Parents.ID"),
            Expr::col_eq("Children.mid", "Parents.ID")
        );
        assert_eq!(p("C.fid = P.ID"), Expr::col_eq("C.fid", "P.ID"));
    }

    #[test]
    fn parses_paper_filters() {
        assert_eq!(
            p("C.age < 7"),
            Expr::binary(BinOp::Lt, Expr::col("C.age"), Expr::lit(7i64))
        );
        assert_eq!(
            p("Kids.FamilyIncome < 100000"),
            Expr::binary(
                BinOp::Lt,
                Expr::col("Kids.FamilyIncome"),
                Expr::lit(100_000i64)
            )
        );
    }

    #[test]
    fn parses_is_null_family() {
        assert_eq!(
            p("Kids.ID IS NOT NULL"),
            Expr::IsNull {
                expr: Box::new(Expr::col("Kids.ID")),
                negated: true
            }
        );
        assert_eq!(
            p("C.mid is null"),
            Expr::IsNull {
                expr: Box::new(Expr::col("C.mid")),
                negated: false
            }
        );
    }

    #[test]
    fn precedence_and_over_or_cmp_over_and() {
        let e = p("a = 1 OR b = 2 AND c = 3");
        // OR(a=1, AND(b=2, c=3))
        match e {
            Expr::Binary {
                op: BinOp::Or,
                right,
                ..
            } => match *right {
                Expr::Binary { op: BinOp::And, .. } => {}
                other => panic!("expected AND on the right, got {other}"),
            },
            other => panic!("expected OR at top, got {other}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = p("P.salary + P2.salary * 2");
        match e {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("expected +, got {other}"),
        }
        // parens override
        let e = p("(P.salary + P2.salary) * 2");
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn family_income_correspondence_parses() {
        // v: Parents.Salary + Parents2.Salary -> Kids.FamilyIncome
        let e = p("Parents.salary + Parents2.salary");
        assert_eq!(e.qualifiers(), vec!["Parents", "Parents2"]);
    }

    #[test]
    fn function_calls_and_nesting() {
        let e = p("concat(Ph.type, ',', Ph.number)");
        match &e {
            Expr::Func { name, args } => {
                assert_eq!(name, "concat");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected function, got {other}"),
        }
        let e = p("upper(concat(a, b))");
        assert!(matches!(e, Expr::Func { .. }));
        let e = p("coalesce()");
        assert!(matches!(e, Expr::Func { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(p("'O''Hare'"), Expr::lit("O'Hare"));
        assert_eq!(
            p("name = 'Maya'"),
            Expr::binary(BinOp::Eq, Expr::col("name"), Expr::lit("Maya"))
        );
    }

    #[test]
    fn not_and_not_like() {
        assert_eq!(
            p("NOT a = 1"),
            Expr::Not(Box::new(Expr::binary(
                BinOp::Eq,
                Expr::col("a"),
                Expr::lit(1i64)
            )))
        );
        let e = p("name NOT LIKE 'M%'");
        assert!(matches!(e, Expr::Not(_)));
        let e = p("name LIKE 'M%'");
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::Like,
                ..
            }
        ));
    }

    #[test]
    fn ne_spellings() {
        assert_eq!(p("a <> 1"), p("a != 1"));
    }

    #[test]
    fn concat_operator_parses() {
        let e = p("Ph.type || ',' || Ph.number");
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::Concat,
                ..
            }
        ));
    }

    #[test]
    fn unary_minus_and_floats() {
        assert_eq!(p("-3"), Expr::Neg(Box::new(Expr::lit(3i64))));
        assert_eq!(p("2.5"), Expr::lit(2.5f64));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_expr("a = ").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        let err = parse_expr("a = 'unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = parse_expr("a # b").unwrap_err();
        assert!(err.to_string().contains('#'));
        assert!(parse_expr("(a = 1").is_err());
        assert!(parse_expr("a = 1 extra junk +").is_err());
    }

    #[test]
    fn expr_list_parsing() {
        let list = parse_expr_list("C.age < 7, Kids.ID IS NOT NULL").unwrap();
        assert_eq!(list.len(), 2);
        assert!(parse_expr_list("").unwrap().is_empty());
        assert!(parse_expr_list("a = 1,").is_err());
    }

    #[test]
    fn round_trip_display_reparses_to_same_ast() {
        for src in [
            "C.mid = P.ID",
            "C.age < 7 AND Kids.ID IS NOT NULL",
            "concat(Ph.type, ',', Ph.number)",
            "NOT (a = 1) OR b IS NULL",
            "P.salary + P2.salary",
            "(x + 1) * 2 = 6",
            "name LIKE 'M%'",
        ] {
            let e1 = p(src);
            let e2 = p(&e1.to_string());
            assert_eq!(e1, e2, "round-trip failed for `{src}`");
        }
    }

    #[test]
    fn parses_in_lists() {
        let e = p("C.ID IN ('001', '002')");
        assert!(matches!(e, Expr::InList { negated: false, ref list, .. } if list.len() == 2));
        let e = p("C.ID NOT IN ('001')");
        assert!(matches!(e, Expr::InList { negated: true, .. }));
        assert!(parse_expr("C.ID IN ()").is_err());
        assert!(parse_expr("C.ID IN ('a',)").is_err());
    }

    #[test]
    fn parses_between() {
        let e = p("C.age BETWEEN 4 AND 7");
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = p("C.age NOT BETWEEN 4 AND 7");
        assert!(matches!(e, Expr::Between { negated: true, .. }));
        // the AND after the BETWEEN bounds still works as conjunction
        let e = p("C.age BETWEEN 4 AND 7 AND C.ID = '1'");
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
        assert!(parse_expr("C.age BETWEEN 4").is_err());
    }

    #[test]
    fn parses_case_expressions() {
        let e = p("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END");
        match &e {
            Expr::Case {
                branches,
                otherwise,
            } => {
                assert_eq!(branches.len(), 2);
                assert!(otherwise.is_some());
            }
            other => panic!("expected CASE, got {other}"),
        }
        let e = p("CASE WHEN a IS NULL THEN 0 END");
        assert!(matches!(e, Expr::Case { ref otherwise, .. } if otherwise.is_none()));
        // nested
        let e = p("CASE WHEN a = 1 THEN CASE WHEN b = 2 THEN 3 END ELSE 4 END");
        assert!(matches!(e, Expr::Case { .. }));
        assert!(parse_expr("CASE ELSE 1 END").is_err());
        assert!(parse_expr("CASE WHEN a THEN 1").is_err());
    }

    #[test]
    fn new_forms_round_trip() {
        for src in [
            "C.ID IN ('001', '002')",
            "C.ID NOT IN ('001')",
            "C.age BETWEEN 4 AND 7",
            "C.age NOT BETWEEN 4 AND 7",
            "CASE WHEN a = 1 THEN 'one' ELSE 'many' END",
            "CASE WHEN a IS NULL THEN 0 END",
        ] {
            let e1 = p(src);
            let e2 = p(&e1.to_string());
            assert_eq!(e1, e2, "round-trip failed for `{src}`");
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(p("a and b or not c"), p("a AND b OR NOT c"));
        assert_eq!(p("x Is NoT nUlL"), p("x IS NOT NULL"));
    }

    #[test]
    fn errors_carry_line_column_and_token() {
        // offending token on line 2
        let err = parse_expr("a = 1\nAND b = )").unwrap_err();
        match err {
            Error::Parse {
                line,
                column,
                ref token,
                ..
            } => {
                assert_eq!(line, 2);
                assert_eq!(column, 9);
                assert_eq!(token, ")");
            }
            other => panic!("expected parse error, got {other}"),
        }
        // end of input: position past the last char, empty token
        let err = parse_expr("a =").unwrap_err();
        match err {
            Error::Parse {
                pos,
                line,
                column,
                ref token,
                ..
            } => {
                assert_eq!((pos, line, column), (3, 1, 4));
                assert!(token.is_empty());
            }
            other => panic!("expected parse error, got {other}"),
        }
        assert!(parse_expr("a =")
            .unwrap_err()
            .to_string()
            .contains("line 1, column 4"));
    }

    fn kids() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("name", DataType::Str),
                Attribute::new("FamilyIncome", DataType::Int),
            ],
        )
        .unwrap()
    }

    #[test]
    fn plain_declarations_parse_and_print() {
        let text = "Kids (ID str not null, name str, FamilyIncome int)";
        assert_eq!(parse_declaration(text).unwrap(), kids());
        assert_eq!(kids().to_string(), text);
        // keywords of the declaration are case-insensitive, types are not
        let loud = parse_declaration("Kids (ID str NOT NULL, name str, FamilyIncome int)");
        assert_eq!(loud.unwrap(), kids());
        assert!(parse_declaration("Kids (ID STR)").is_err());
    }

    #[test]
    fn quoted_declaration_names_round_trip() {
        let schema = RelSchema::new(
            "Kid s",
            vec![
                Attribute::not_null("ID col", DataType::Str),
                Attribute::new("end", DataType::Bool),
                Attribute::new("say \"hi\"", DataType::Float),
                Attribute::new("null", DataType::Int),
                Attribute::new("from", DataType::Str),
            ],
        )
        .unwrap();
        let text = schema.to_string();
        assert_eq!(
            text,
            "\"Kid s\" (\"ID col\" str not null, \"end\" bool, \"say \"\"hi\"\"\" float, \
             \"null\" int, from str)"
        );
        assert_eq!(parse_declaration(&text).unwrap(), schema);
        // a keyword or a name with a space must be quoted
        assert!(parse_declaration("T (end int)").is_err());
        assert!(parse_declaration("Kid s (a int)").is_err());
    }

    #[test]
    fn empty_attribute_lists_round_trip() {
        let schema = RelSchema::new("T", vec![]).unwrap();
        assert_eq!(schema.to_string(), "T ()");
        assert_eq!(parse_declaration("T ()").unwrap(), schema);
    }

    #[test]
    fn declaration_errors_point_at_the_offending_token() {
        for (text, needle) in [
            ("", "target schema needs"),
            ("Kids", "target schema needs"),
            ("Kids ID str", "target schema needs"),
            ("Kids (ID str", "missing closing `)`"),
            ("Kids (ID)", "attribute `ID` missing type"),
            ("Kids (ID str,)", "empty attribute"),
            ("Kids (ID frobs)", "unknown type `frobs`"),
            ("Kids (ID \"str\")", "unknown type `str`"),
            (
                "Kids (ID str zesty)",
                "unexpected attribute modifier `zesty`",
            ),
            ("Kids (ID str not)", "unexpected attribute modifier `not`"),
            ("Kids (ID str, ID int)", "duplicate attribute `ID`"),
            ("(a int)", "expected a target relation name"),
            ("\"Kids (a int)", "unterminated quoted identifier"),
            ("Kids (a int) extra", "unexpected trailing input `extra`"),
        ] {
            let err = parse_declaration(text).unwrap_err().to_string();
            assert!(err.contains(needle), "for {text:?}: got {err}");
        }
        for (text, at) in [
            ("Kids (ID col str)", "line 1, column 10"),
            ("Kids", "line 1, column 1"),
            ("Kids ID str", "line 1, column 6"),
            ("Kids (ID str", "line 1, column 6"),
            ("Kids (ID str,)", "line 1, column 6"),
            ("Kids (ID str not)", "line 1, column 14"),
        ] {
            let err = parse_declaration(text).unwrap_err().to_string();
            assert!(err.contains(at), "for {text:?}: got {err}");
        }
        let err = parse_declaration("Kids (ID col str)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown type `col`"), "{err}");
    }

    #[test]
    fn quoted_identifiers_lex_as_idents() {
        let e = p("\"My Rel\".x = 1");
        assert_eq!(e.qualifiers(), vec!["My Rel"]);
        // keywords lose their meaning when quoted
        let e = p("\"select\" = 'x'");
        assert!(matches!(e, Expr::Binary { op: BinOp::Eq, .. }));
        // `""` escapes an embedded quote
        let e = p("\"a\"\"b\" IS NULL");
        match e {
            Expr::IsNull { expr, .. } => match *expr {
                Expr::Column(ref c) => assert_eq!(c.name, "a\"b"),
                other => panic!("expected column, got {other}"),
            },
            other => panic!("expected IS NULL, got {other}"),
        }
        assert!(parse_expr("\"unterminated").is_err());
        assert!(parse_expr("\"\" = 1").is_err());
        // round-trip through Display
        for src in ["\"My Rel\".\"a b\" = 1", "\"select\" < 2"] {
            let e1 = p(src);
            let e2 = p(&e1.to_string());
            assert_eq!(e1, e2, "round-trip failed for `{src}`");
        }
    }
}
