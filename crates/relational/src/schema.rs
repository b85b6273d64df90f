//! Relation schemes and the wide, qualified schemes of intermediate results.
//!
//! Two levels of scheme exist in the engine:
//!
//! * [`RelSchema`] — the scheme of a stored relation: a relation name plus an
//!   ordered list of [`Attribute`]s (paper Sec 3, *Preliminaries*).
//! * [`Scheme`] — the scheme of a derived table (join result, data
//!   association): an ordered list of columns, each qualified by the *node
//!   alias* it came from. The paper's convention that "multiple copies of a
//!   relation … have been given unique names" is realized by qualifiers:
//!   a second copy of `Parents` appears as qualifier `Parents2`.

use std::fmt;

use crate::error::{Error, Result};
use crate::value::DataType;

/// Does `name` need double-quoting to survive the expression lexer?
/// Plain `[A-Za-z_][A-Za-z0-9_]*` identifiers that are not expression
/// keywords pass through unquoted; everything else (whitespace,
/// punctuation, leading digits, keyword collisions, empty) must be
/// written `"name"` with `""` escaping embedded quotes.
#[must_use]
pub fn ident_needs_quoting(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return true; // empty
    };
    if !(first.is_alphabetic() || first == '_') {
        return true;
    }
    if !chars.all(|c| c.is_alphanumeric() || c == '_') {
        return true;
    }
    crate::parser::is_keyword(name)
}

/// Render an identifier so the expression lexer reads it back verbatim:
/// plain identifiers unchanged, everything else double-quoted with `""`
/// escapes (see [`ident_needs_quoting`]).
#[must_use]
pub fn format_ident(name: &str) -> String {
    if ident_needs_quoting(name) {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        name.to_string()
    }
}

/// One attribute of a relation scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Domain type.
    pub ty: DataType,
    /// `true` when the schema forbids nulls in this attribute.
    pub not_null: bool,
}

impl Attribute {
    /// A nullable attribute.
    pub fn new(name: impl Into<String>, ty: DataType) -> Attribute {
        Attribute {
            name: name.into(),
            ty,
            not_null: false,
        }
    }

    /// A `NOT NULL` attribute.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> Attribute {
        Attribute {
            name: name.into(),
            ty,
            not_null: true,
        }
    }
}

/// The scheme of a stored relation: name + ordered attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelSchema {
    name: String,
    attrs: Vec<Attribute>,
}

impl RelSchema {
    /// Build a relation scheme, rejecting duplicate attribute names.
    pub fn new(name: impl Into<String>, attrs: Vec<Attribute>) -> Result<RelSchema> {
        let name = name.into();
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(Error::DuplicateAttribute {
                    relation: name,
                    attribute: a.name.clone(),
                });
            }
        }
        Ok(RelSchema { name, attrs })
    }

    /// The relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered attributes.
    #[must_use]
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Position of an attribute by name.
    pub fn index_of(&self, attr: &str) -> Result<usize> {
        self.attrs
            .iter()
            .position(|a| a.name == attr)
            .ok_or_else(|| Error::UnknownColumn(format!("{}.{attr}", self.name)))
    }

    /// Attribute by name.
    pub fn attr(&self, name: &str) -> Result<&Attribute> {
        Ok(&self.attrs[self.index_of(name)?])
    }

    /// A renamed copy of this scheme (used when a mapping introduces a
    /// second copy of a relation, e.g. `Parents2`).
    #[must_use]
    pub fn renamed(&self, new_name: impl Into<String>) -> RelSchema {
        RelSchema {
            name: new_name.into(),
            attrs: self.attrs.clone(),
        }
    }

    /// Render the declaration `Name (attr type [not null], ...)` that
    /// [`crate::parser::parse_declaration`] reads back, writing every
    /// name through `quote`. `Display` quotes with [`format_ident`]; a
    /// language whose own keywords must stay names passes a stricter
    /// quoting function.
    #[must_use]
    pub fn declaration(&self, quote: impl Fn(&str) -> String) -> String {
        let attrs: Vec<String> = self
            .attrs
            .iter()
            .map(|a| {
                let not_null = if a.not_null { " not null" } else { "" };
                format!("{} {}{not_null}", quote(&a.name), a.ty)
            })
            .collect();
        format!("{} ({})", quote(&self.name), attrs.join(", "))
    }
}

impl fmt::Display for RelSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.declaration(format_ident))
    }
}

/// A reference to a column: optional qualifier (relation alias) + name.
///
/// Written `C.age` or just `age` in the predicate language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// The relation alias, when given.
    pub qualifier: Option<String>,
    /// The attribute name.
    pub name: String,
}

impl ColumnRef {
    /// A qualified reference `qualifier.name`.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// An unqualified reference `name`.
    pub fn bare(name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Parse `a.b` or `b` (no whitespace handling; use the full parser for
    /// user input).
    #[must_use]
    pub fn parse_simple(s: &str) -> ColumnRef {
        match s.split_once('.') {
            Some((q, n)) => ColumnRef::qualified(q, n),
            None => ColumnRef::bare(s),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}.{}", format_ident(q), format_ident(&self.name)),
            None => f.write_str(&format_ident(&self.name)),
        }
    }
}

/// One column of a wide (derived) scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The node alias this column belongs to (`Parents2.salary` has
    /// qualifier `Parents2` even though the stored relation is `Parents`).
    pub qualifier: String,
    /// Attribute name within the qualifier.
    pub name: String,
    /// Domain type.
    pub ty: DataType,
}

impl Column {
    /// Construct a column.
    pub fn new(qualifier: impl Into<String>, name: impl Into<String>, ty: DataType) -> Column {
        Column {
            qualifier: qualifier.into(),
            name: name.into(),
            ty,
        }
    }

    /// `qualifier.name` rendering.
    #[must_use]
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.qualifier, self.name)
    }
}

/// The scheme of a derived table: ordered, qualified columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Scheme {
    cols: Vec<Column>,
}

impl Scheme {
    /// Empty scheme.
    #[must_use]
    pub fn empty() -> Scheme {
        Scheme { cols: Vec::new() }
    }

    /// Build from columns.
    #[must_use]
    pub fn new(cols: Vec<Column>) -> Scheme {
        Scheme { cols }
    }

    /// The scheme of relation `schema` under alias `alias`.
    #[must_use]
    pub fn of_relation(schema: &RelSchema, alias: &str) -> Scheme {
        Scheme {
            cols: schema
                .attrs()
                .iter()
                .map(|a| Column::new(alias, a.name.clone(), a.ty))
                .collect(),
        }
    }

    /// The ordered columns.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Resolve a [`ColumnRef`]: with a qualifier it must match exactly;
    /// without one the name must be unique across qualifiers.
    pub fn resolve(&self, col: &ColumnRef) -> Result<usize> {
        match &col.qualifier {
            Some(q) => self
                .cols
                .iter()
                .position(|c| c.qualifier == *q && c.name == col.name)
                .ok_or_else(|| Error::UnknownColumn(col.to_string())),
            None => {
                let mut found = None;
                for (i, c) in self.cols.iter().enumerate() {
                    if c.name == col.name {
                        if found.is_some() {
                            return Err(Error::AmbiguousColumn(col.name.clone()));
                        }
                        found = Some(i);
                    }
                }
                found.ok_or_else(|| Error::UnknownColumn(col.to_string()))
            }
        }
    }

    /// The distinct qualifiers in column order.
    #[must_use]
    pub fn qualifiers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cols {
            if !out.contains(&c.qualifier.as_str()) {
                out.push(&c.qualifier);
            }
        }
        out
    }

    /// Column indexes belonging to a qualifier.
    #[must_use]
    pub fn indexes_of_qualifier(&self, qualifier: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.qualifier == qualifier)
            .map(|(i, _)| i)
            .collect()
    }

    /// Concatenate two schemes (join result). Duplicated (qualifier, name)
    /// pairs are rejected: mappings must rename copies first.
    pub fn concat(&self, other: &Scheme) -> Result<Scheme> {
        let mut cols = self.cols.clone();
        for c in &other.cols {
            if cols
                .iter()
                .any(|d| d.qualifier == c.qualifier && d.name == c.name)
            {
                return Err(Error::Invalid(format!(
                    "duplicate column `{}` when concatenating schemes; \
                     rename the relation copy first",
                    c.qualified_name()
                )));
            }
            cols.push(c.clone());
        }
        Ok(Scheme { cols })
    }

    /// Position of every column of `other` inside `self`, or an error if a
    /// column of `other` is missing. Used to align outer unions.
    pub fn positions_of(&self, other: &Scheme) -> Result<Vec<usize>> {
        other
            .cols
            .iter()
            .map(|c| {
                self.cols
                    .iter()
                    .position(|d| d.qualifier == c.qualifier && d.name == c.name)
                    .ok_or_else(|| Error::UnknownColumn(c.qualified_name()))
            })
            .collect()
    }

    /// Does `self` contain every column of `other`?
    #[must_use]
    pub fn contains_scheme(&self, other: &Scheme) -> bool {
        self.positions_of(other).is_ok()
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(&c.qualified_name())?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn children() -> RelSchema {
        RelSchema::new(
            "Children",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("name", DataType::Str),
                Attribute::new("age", DataType::Int),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rel_schema_rejects_duplicate_attributes() {
        let err = RelSchema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("a", DataType::Str),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, Error::DuplicateAttribute { .. }));
    }

    #[test]
    fn rel_schema_lookup() {
        let s = children();
        assert_eq!(s.index_of("age").unwrap(), 2);
        assert!(s.attr("ID").unwrap().not_null);
        assert!(s.index_of("salary").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn renamed_copy_keeps_attributes() {
        let s = children().renamed("Children2");
        assert_eq!(s.name(), "Children2");
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn rel_schema_display() {
        let s = children();
        assert_eq!(
            s.to_string(),
            "Children (ID str not null, name str, age int)"
        );
    }

    #[test]
    fn scheme_of_relation_qualifies_columns() {
        let sch = Scheme::of_relation(&children(), "C");
        assert_eq!(sch.arity(), 3);
        assert_eq!(sch.columns()[0].qualified_name(), "C.ID");
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let sch = Scheme::of_relation(&children(), "C");
        assert_eq!(sch.resolve(&ColumnRef::qualified("C", "age")).unwrap(), 2);
        assert_eq!(sch.resolve(&ColumnRef::bare("name")).unwrap(), 1);
        assert!(sch.resolve(&ColumnRef::qualified("P", "age")).is_err());
    }

    #[test]
    fn bare_resolution_detects_ambiguity() {
        let c = Scheme::of_relation(&children(), "C");
        let p = Scheme::of_relation(&children().renamed("Parents"), "P");
        let wide = c.concat(&p).unwrap();
        assert!(matches!(
            wide.resolve(&ColumnRef::bare("ID")),
            Err(Error::AmbiguousColumn(_))
        ));
        assert_eq!(wide.resolve(&ColumnRef::qualified("P", "ID")).unwrap(), 3);
    }

    #[test]
    fn concat_rejects_duplicate_qualifier() {
        let c = Scheme::of_relation(&children(), "C");
        assert!(c.concat(&c).is_err());
    }

    #[test]
    fn qualifiers_and_indexes() {
        let c = Scheme::of_relation(&children(), "C");
        let p = Scheme::of_relation(&children().renamed("Parents"), "P");
        let wide = c.concat(&p).unwrap();
        assert_eq!(wide.qualifiers(), vec!["C", "P"]);
        assert_eq!(wide.indexes_of_qualifier("P"), vec![3, 4, 5]);
    }

    #[test]
    fn positions_of_and_containment() {
        let c = Scheme::of_relation(&children(), "C");
        let p = Scheme::of_relation(&children().renamed("Parents"), "P");
        let wide = c.concat(&p).unwrap();
        assert_eq!(wide.positions_of(&p).unwrap(), vec![3, 4, 5]);
        assert!(wide.contains_scheme(&c));
        assert!(!c.contains_scheme(&wide));
    }

    #[test]
    fn column_ref_parse_simple() {
        assert_eq!(
            ColumnRef::parse_simple("C.age"),
            ColumnRef::qualified("C", "age")
        );
        assert_eq!(ColumnRef::parse_simple("age"), ColumnRef::bare("age"));
    }

    #[test]
    fn idents_quote_only_when_needed() {
        assert_eq!(format_ident("Children"), "Children");
        assert_eq!(format_ident("_x9"), "_x9");
        assert_eq!(format_ident("My Rel"), "\"My Rel\"");
        assert_eq!(format_ident("9lives"), "\"9lives\"");
        assert_eq!(format_ident("a-b"), "\"a-b\"");
        assert_eq!(format_ident(""), "\"\"");
        assert_eq!(format_ident("a\"b"), "\"a\"\"b\"");
        // expression keywords must be quoted to stay identifiers
        assert_eq!(format_ident("select"), "select");
        assert_eq!(format_ident("and"), "\"and\"");
        assert_eq!(format_ident("NULL"), "\"NULL\"");
    }

    #[test]
    fn quoted_column_ref_display_reparses() {
        let c = ColumnRef::qualified("My Rel", "a b");
        assert_eq!(c.to_string(), "\"My Rel\".\"a b\"");
        let e = crate::parser::parse_expr(&format!("{c} IS NULL")).unwrap();
        match e {
            crate::expr::Expr::IsNull { expr, .. } => {
                assert_eq!(*expr, crate::expr::Expr::Column(c));
            }
            other => panic!("expected IS NULL, got {other}"),
        }
    }
}
