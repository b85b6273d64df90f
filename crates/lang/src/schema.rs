//! The target-schema declaration `Name (attr type [not null], ...)`.
//!
//! One parser/printer pair serves every place a target schema is
//! written down: the head of a `MAP` clause, the CLI's `--target` flag,
//! and the `_target.txt` that `db save` writes beside a paged database.
//! The parser runs on the statement tokenizer, so quoting follows the
//! expression lexer's rules, and [`print_target_schema`] quotes through
//! [`lang_ident`]; `parse_target_schema(&print_target_schema(s)) == s`
//! for every schema.

use clio_relational::error::{Error, Result};
use clio_relational::schema::{Attribute, RelSchema};
use clio_relational::value::DataType;

use crate::parser::{err_at, ident};
use crate::printer::lang_ident;
use crate::token::{tokenize, TokKind, Token};

const USAGE: &str = "target schema needs `Name (attr type [not null], ...)`";

/// Parse a standalone target-schema declaration (the `--target` flag,
/// a `_target.txt` file). Errors carry line/column positions.
pub fn parse_target_schema(input: &str) -> Result<RelSchema> {
    let toks = tokenize(input)?;
    let Some(first) = toks.first() else {
        return Err(Error::Parse {
            pos: 0,
            line: 1,
            column: 1,
            token: String::new(),
            message: USAGE.into(),
        });
    };
    schema_from_tokens(&toks, first)
}

/// Render a target schema in the form [`parse_target_schema`] reads
/// back, quoting names that are keywords or carry punctuation.
#[must_use]
pub fn print_target_schema(schema: &RelSchema) -> String {
    let attrs: Vec<String> = schema
        .attrs()
        .iter()
        .map(|a| {
            let not_null = if a.not_null { " not null" } else { "" };
            format!("{} {}{not_null}", lang_ident(&a.name), a.ty)
        })
        .collect();
    format!("{} ({})", lang_ident(schema.name()), attrs.join(", "))
}

/// Parse a target schema from a token run that it must consume
/// exactly; `anchor` positions the error when the run is empty.
pub(crate) fn schema_from_tokens(toks: &[Token], anchor: &Token) -> Result<RelSchema> {
    let Some((name_tok, rest)) = toks.split_first() else {
        return Err(err_at(anchor, USAGE));
    };
    let name = ident(name_tok, "a target relation name")?;
    let open = match rest.first() {
        Some(t) if t.kind == TokKind::Sym('(') => t,
        Some(t) => return Err(err_at(t, USAGE)),
        None => return Err(err_at(name_tok, USAGE)),
    };
    let body = match rest[1..].split_last() {
        Some((close, body)) if close.kind == TokKind::Sym(')') => body,
        _ => return Err(err_at(open, "target schema missing closing `)`")),
    };
    let mut attrs = Vec::new();
    if !body.is_empty() {
        for group in body.split(|t| t.kind == TokKind::Sym(',')) {
            attrs.push(attribute(group, open)?);
        }
    }
    RelSchema::new(name.text, attrs)
}

/// One `attr type [not null]` item.
fn attribute(group: &[Token], anchor: &Token) -> Result<Attribute> {
    let (name, ty, modifier) = match group {
        [] => return Err(err_at(anchor, "empty attribute in target schema")),
        [name] => {
            return Err(err_at(
                name,
                format!("attribute `{}` missing type", name.text),
            ))
        }
        [name, ty, modifier @ ..] => (ident(name, "an attribute name")?, ty, modifier),
    };
    let ty = match ty.text.as_str() {
        "int" if ty.kind == TokKind::Word => DataType::Int,
        "float" if ty.kind == TokKind::Word => DataType::Float,
        "str" if ty.kind == TokKind::Word => DataType::Str,
        "bool" if ty.kind == TokKind::Word => DataType::Bool,
        other => return Err(err_at(ty, format!("unknown type `{other}`"))),
    };
    match modifier {
        [] => Ok(Attribute::new(name.text, ty)),
        [n, m] if n.is_word("not") && m.is_word("null") => Ok(Attribute::not_null(name.text, ty)),
        [first, ..] => {
            let words: Vec<&str> = modifier.iter().map(|t| t.text.as_str()).collect();
            Err(err_at(
                first,
                format!("unexpected attribute modifier `{}`", words.join(" ")),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn plain_schema_parses_and_prints() {
        let text = "Kids (ID str not null, name str, FamilyIncome int)";
        assert_eq!(parse_target_schema(text).unwrap(), kids());
        assert_eq!(print_target_schema(&kids()), text);
        // keywords of the declaration are case-insensitive, types are not
        let loud = parse_target_schema("Kids (ID str NOT NULL, name str, FamilyIncome int)");
        assert_eq!(loud.unwrap(), kids());
    }

    #[test]
    fn quoted_names_round_trip() {
        let schema = RelSchema::new(
            "Kid s",
            vec![
                Attribute::not_null("ID col", DataType::Str),
                Attribute::new("from", DataType::Bool),
                Attribute::new("say \"hi\"", DataType::Float),
                Attribute::new("null", DataType::Int),
            ],
        )
        .unwrap();
        let text = print_target_schema(&schema);
        assert_eq!(
            text,
            "\"Kid s\" (\"ID col\" str not null, \"from\" bool, \"say \"\"hi\"\"\" float, \
             \"null\" int)"
        );
        assert_eq!(parse_target_schema(&text).unwrap(), schema);
    }

    #[test]
    fn empty_attribute_lists_round_trip() {
        let schema = RelSchema::new("T", vec![]).unwrap();
        assert_eq!(print_target_schema(&schema), "T ()");
        assert_eq!(parse_target_schema("T ()").unwrap(), schema);
    }

    #[test]
    fn errors_point_at_the_offending_token() {
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
        ] {
            let err = parse_target_schema(text).unwrap_err().to_string();
            assert!(err.contains(needle), "for {text:?}: got {err}");
        }
        let err = parse_target_schema("Kids (ID col str)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 1, column 10"), "{err}");
        assert!(err.contains("unknown type `col`"), "{err}");
    }
}
