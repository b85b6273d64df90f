//! Error type shared by the relational engine.

use std::fmt;

/// Errors produced by schema resolution, expression evaluation, and
/// relational operators.
///
/// The engine is strict: referencing an unknown column or applying an
/// operator to incompatible types is an error rather than a silent `NULL`,
/// so mapping bugs surface early.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // struct-variant fields are self-describing
pub enum Error {
    /// A column reference did not resolve against the scheme in scope.
    UnknownColumn(String),
    /// A column reference matched more than one column (missing qualifier).
    AmbiguousColumn(String),
    /// A relation name did not resolve against the database.
    UnknownRelation(String),
    /// A relation with this name already exists in the database.
    DuplicateRelation(String),
    /// A replacement relation's scheme is incompatible with the original.
    SchemeMismatch { relation: String, detail: String },
    /// An attribute name appears twice in one relation scheme.
    DuplicateAttribute { relation: String, attribute: String },
    /// A scalar function name did not resolve against the registry.
    UnknownFunction(String),
    /// A scalar function was called with the wrong number of arguments.
    FunctionArity {
        name: String,
        expected: usize,
        got: usize,
    },
    /// An operator or function was applied to values of unsupported types.
    TypeMismatch(String),
    /// A tuple's width does not match its relation scheme.
    ArityMismatch { expected: usize, got: usize },
    /// A `NOT NULL` attribute received a null value.
    NullViolation { relation: String, attribute: String },
    /// A key constraint was violated on insert.
    KeyViolation { relation: String, key: String },
    /// Text failed to parse as an expression; carries the character
    /// offset, the 1-based line/column, the offending token's text
    /// (empty at end of input), and a message.
    Parse {
        pos: usize,
        line: usize,
        column: usize,
        token: String,
        message: String,
    },
    /// Division by zero (or modulo by zero) during evaluation.
    DivisionByZero,
    /// A relation name cannot name its file in a database directory: it
    /// is not one plain path component, or the layout reserves its file.
    BadRelationFile { relation: String, reason: String },
    /// Anything else worth reporting with a message.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Error::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            Error::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            Error::DuplicateRelation(r) => write!(f, "relation `{r}` already exists"),
            Error::SchemeMismatch { relation, detail } => {
                write!(f, "cannot replace relation `{relation}`: {detail}")
            }
            Error::DuplicateAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "duplicate attribute `{attribute}` in relation `{relation}`"
                )
            }
            Error::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            Error::FunctionArity {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "function `{name}` expects {expected} argument(s), got {got}"
                )
            }
            Error::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            Error::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity mismatch: expected {expected} values, got {got}"
                )
            }
            Error::NullViolation {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "null value in NOT NULL attribute `{relation}.{attribute}`"
                )
            }
            Error::KeyViolation { relation, key } => {
                write!(f, "key violation on `{relation}` (key {key})")
            }
            Error::Parse {
                line,
                column,
                token,
                message,
                ..
            } => {
                write!(f, "parse error at line {line}, column {column}: {message}")?;
                if !token.is_empty() {
                    write!(f, " (near `{token}`)")?;
                }
                Ok(())
            }
            Error::DivisionByZero => write!(f, "division by zero"),
            Error::BadRelationFile { relation, reason } => {
                write!(
                    f,
                    "relation `{relation}` cannot be stored in a directory: {reason}"
                )
            }
            Error::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_human_readable() {
        let cases: Vec<(Error, &str)> = vec![
            (
                Error::UnknownColumn("C.age".into()),
                "unknown column `C.age`",
            ),
            (Error::AmbiguousColumn("ID".into()), "ambiguous column `ID`"),
            (
                Error::UnknownRelation("Kids".into()),
                "unknown relation `Kids`",
            ),
            (
                Error::DuplicateRelation("Kids".into()),
                "relation `Kids` already exists",
            ),
            (
                Error::SchemeMismatch {
                    relation: "Kids".into(),
                    detail: "arity changed from 2 to 3".into(),
                },
                "cannot replace relation `Kids`: arity changed from 2 to 3",
            ),
            (Error::DivisionByZero, "division by zero"),
        ];
        for (err, expect) in cases {
            assert_eq!(err.to_string(), expect);
        }
    }

    #[test]
    fn parse_error_carries_position() {
        let e = Error::Parse {
            pos: 7,
            line: 1,
            column: 8,
            token: ",".into(),
            message: "expected `)`".into(),
        };
        assert_eq!(
            e.to_string(),
            "parse error at line 1, column 8: expected `)` (near `,`)"
        );
        let e = Error::Parse {
            pos: 7,
            line: 2,
            column: 3,
            token: String::new(),
            message: "unexpected end of input".into(),
        };
        assert_eq!(
            e.to_string(),
            "parse error at line 2, column 3: unexpected end of input"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::DivisionByZero);
    }
}
