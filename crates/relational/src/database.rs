//! Databases: named relations over mutually disjoint schemes, plus
//! constraints (paper Sec 3, *Preliminaries*).
//!
//! A database's relations live in one of two interchangeable backends
//! (the `Storage` seam): fully **in memory** (the default, and what
//! every mutating operation normalizes to) or **paged** on disk behind
//! a buffer pool ([`crate::storage`]), where relations fault in on
//! demand so the working set — not the database — bounds memory. All
//! read accessors answer identically on either backend.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use crate::constraints::Constraints;
use crate::error::{Error, Result};
use crate::index::ValueIndex;
use crate::relation::Relation;
use crate::schema::RelSchema;
use crate::storage::PagedStorage;

/// Where a database's relations live.
#[derive(Debug, Clone)]
enum Storage {
    /// Every relation resident, in insertion order.
    Memory(Vec<Relation>),
    /// Relations in paged heap files, faulted in on demand.
    Paged(PagedStorage),
}

/// A database: a set of relations plus schema constraints.
#[derive(Debug, Clone)]
pub struct Database {
    storage: Storage,
    /// Declared/mined constraints over the schema.
    pub constraints: Constraints,
}

impl Default for Database {
    fn default() -> Database {
        Database {
            storage: Storage::Memory(Vec::new()),
            constraints: Constraints::default(),
        }
    }
}

/// The first way `new` differs from `old` as a replacement scheme, or
/// `None` when the schemes are compatible (same attribute names, types,
/// and nullability, in order).
fn scheme_mismatch_detail(old: &RelSchema, new: &RelSchema) -> Option<String> {
    if old.arity() != new.arity() {
        return Some(format!(
            "arity changed from {} to {}",
            old.arity(),
            new.arity()
        ));
    }
    for (a, b) in old.attrs().iter().zip(new.attrs()) {
        if a.name != b.name {
            return Some(format!("attribute `{}` renamed to `{}`", a.name, b.name));
        }
        if a.ty != b.ty {
            return Some(format!(
                "attribute `{}` changed type from {} to {}",
                a.name, a.ty, b.ty
            ));
        }
        if a.not_null != b.not_null {
            let (was, is) = if a.not_null {
                ("not null", "nullable")
            } else {
                ("nullable", "not null")
            };
            return Some(format!("attribute `{}` changed from {was} to {is}", a.name));
        }
    }
    None
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    /// A database over an already-opened paged backend.
    pub(crate) fn from_paged(paged: PagedStorage, constraints: Constraints) -> Database {
        Database {
            storage: Storage::Paged(paged),
            constraints,
        }
    }

    /// Add a relation; names must be unique.
    pub fn add_relation(&mut self, rel: Relation) -> Result<()> {
        if self.has_relation(rel.name()) {
            return Err(Error::DuplicateRelation(rel.name().to_owned()));
        }
        self.promote()?;
        let Storage::Memory(relations) = &mut self.storage else {
            unreachable!("promote() normalizes to the memory backend");
        };
        relations.push(rel);
        Ok(())
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        match &self.storage {
            Storage::Memory(relations) => relations.iter().find(|r| r.name() == name),
            Storage::Paged(paged) => paged.relation(name),
        }
        .ok_or_else(|| Error::UnknownRelation(name.to_owned()))
    }

    /// Replace an existing relation wholesale (content edit). Errors
    /// when no relation with that name exists, or when the replacement's
    /// scheme is incompatible with the original (attribute names, types,
    /// or nullability differ) — derived state such as [`ValueIndex`]
    /// snapshots and cache fingerprints key off the scheme, so a
    /// scheme-changing edit must be rejected rather than silently
    /// corrupting it.
    pub fn replace_relation(&mut self, rel: Relation) -> Result<()> {
        let old = self.relation(rel.name())?.schema().clone();
        if let Some(detail) = scheme_mismatch_detail(&old, rel.schema()) {
            return Err(Error::SchemeMismatch {
                relation: rel.name().to_owned(),
                detail,
            });
        }
        let slot = self.relation_mut(rel.name())?;
        *slot = rel;
        Ok(())
    }

    /// Mutable lookup. On the paged backend this first materializes the
    /// whole database in memory ([`Database::promote`]), since handing
    /// out `&mut` into a shared page cache would alias snapshots.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.promote()?;
        let Storage::Memory(relations) = &mut self.storage else {
            unreachable!("promote() normalizes to the memory backend");
        };
        relations
            .iter_mut()
            .find(|r| r.name() == name)
            .ok_or_else(|| Error::UnknownRelation(name.to_owned()))
    }

    /// All relations, in insertion order. On the paged backend this
    /// faults relations in on first touch; a relation whose heap file
    /// has become unreadable is skipped (already logged and counted by
    /// the pager) rather than served wrong.
    pub fn relations(&self) -> Box<dyn Iterator<Item = &Relation> + '_> {
        match &self.storage {
            Storage::Memory(relations) => Box::new(relations.iter()),
            Storage::Paged(paged) => Box::new(paged.iter_relations()),
        }
    }

    /// Number of relations (from the schema — never faults data in).
    #[must_use]
    pub fn relation_count(&self) -> usize {
        match &self.storage {
            Storage::Memory(relations) => relations.len(),
            Storage::Paged(paged) => paged.schemas().len(),
        }
    }

    /// All relation names, in insertion order.
    #[must_use]
    pub fn relation_names(&self) -> Vec<&str> {
        match &self.storage {
            Storage::Memory(relations) => relations.iter().map(Relation::name).collect(),
            Storage::Paged(paged) => paged.schemas().iter().map(RelSchema::name).collect(),
        }
    }

    /// Does a relation with this name exist?
    #[must_use]
    pub fn has_relation(&self, name: &str) -> bool {
        match &self.storage {
            Storage::Memory(relations) => relations.iter().any(|r| r.name() == name),
            Storage::Paged(paged) => paged.schemas().iter().any(|s| s.name() == name),
        }
    }

    /// Total number of stored tuples across relations.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        match &self.storage {
            Storage::Memory(relations) => relations.iter().map(Relation::len).sum(),
            Storage::Paged(paged) => paged.total_rows(),
        }
    }

    /// The persisted [`ValueIndex`] shipped with a paged database, if
    /// this database is paged and its `_index.clh` loads cleanly.
    /// `None` means the caller should build the index itself (the
    /// in-memory backend, or a corrupt/missing index file — degraded,
    /// never wrong).
    #[must_use]
    pub fn stored_index(&self) -> Option<Arc<ValueIndex>> {
        match &self.storage {
            Storage::Memory(_) => None,
            Storage::Paged(paged) => paged.stored_index(),
        }
    }

    /// The on-disk directory backing this database, when paged.
    #[must_use]
    pub fn paged_dir(&self) -> Option<&Path> {
        match &self.storage {
            Storage::Memory(_) => None,
            Storage::Paged(paged) => Some(paged.dir()),
        }
    }

    /// Normalize to the in-memory backend, materializing every relation
    /// from the page files. A no-op when already in memory. Mutating
    /// operations call this first, so edits never write through to the
    /// source directory.
    pub fn promote(&mut self) -> Result<()> {
        if let Storage::Paged(paged) = &self.storage {
            let relations = paged.materialize_all()?;
            self.storage = Storage::Memory(relations);
        }
        Ok(())
    }

    /// Validate all declared constraints against the current instance.
    pub fn check_constraints(&self) -> Result<()> {
        self.constraints.check_all(self)
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.constraints == other.constraints
            && self.relation_count() == other.relation_count()
            && self.relations().eq(other.relations())
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations() {
            writeln!(f, "{}", rel.schema())?;
            writeln!(f, "{rel}")?;
        }
        for k in &self.constraints.keys {
            writeln!(f, "{k}")?;
        }
        for fk in &self.constraints.foreign_keys {
            writeln!(f, "{fk}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ForeignKey;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .row(vec!["001".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .row(vec!["201".into()])
                .row(vec!["202".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn add_and_lookup() {
        let db = db();
        assert!(db.has_relation("Children"));
        assert!(!db.has_relation("Kids"));
        assert_eq!(db.relation("Parents").unwrap().len(), 2);
        assert!(matches!(
            db.relation("Kids"),
            Err(Error::UnknownRelation(_))
        ));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = db();
        let dup = RelationBuilder::new("Children")
            .attr("x", DataType::Int)
            .build()
            .unwrap();
        assert!(matches!(
            db.add_relation(dup),
            Err(Error::DuplicateRelation(_))
        ));
    }

    #[test]
    fn names_and_counts() {
        let db = db();
        assert_eq!(db.relation_names(), vec!["Children", "Parents"]);
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.total_rows(), 3);
    }

    #[test]
    fn mutation_through_relation_mut() {
        let mut db = db();
        db.relation_mut("Children")
            .unwrap()
            .insert(vec!["002".into()])
            .unwrap();
        assert_eq!(db.relation("Children").unwrap().len(), 2);
    }

    #[test]
    fn replace_with_compatible_scheme_succeeds() {
        let mut db = db();
        let replacement = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .row(vec!["009".into()])
            .row(vec!["010".into()])
            .build()
            .unwrap();
        db.replace_relation(replacement).unwrap();
        assert_eq!(db.relation("Children").unwrap().len(), 2);
    }

    #[test]
    fn replace_with_different_arity_rejected() {
        let mut db = db();
        let wide = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("name", DataType::Str)
            .build()
            .unwrap();
        let err = db.replace_relation(wide).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot replace relation `Children`: arity changed from 1 to 2"
        );
        // The original survives the rejected edit untouched.
        assert_eq!(db.relation("Children").unwrap().len(), 1);
    }

    #[test]
    fn replace_with_renamed_attribute_rejected() {
        let mut db = db();
        let renamed = RelationBuilder::new("Children")
            .attr_not_null("Id", DataType::Str)
            .build()
            .unwrap();
        let err = db.replace_relation(renamed).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot replace relation `Children`: attribute `ID` renamed to `Id`"
        );
    }

    #[test]
    fn replace_with_changed_type_rejected() {
        let mut db = db();
        let retyped = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Int)
            .build()
            .unwrap();
        let err = db.replace_relation(retyped).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot replace relation `Children`: attribute `ID` changed type from str to int"
        );
    }

    #[test]
    fn replace_with_changed_nullability_rejected() {
        let mut db = db();
        let relaxed = RelationBuilder::new("Children")
            .attr("ID", DataType::Str)
            .build()
            .unwrap();
        let err = db.replace_relation(relaxed).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot replace relation `Children`: attribute `ID` changed from not null to nullable"
        );
        // And the opposite direction.
        let mut db2 = Database::new();
        db2.add_relation(
            RelationBuilder::new("R")
                .attr("x", DataType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        let tightened = RelationBuilder::new("R")
            .attr_not_null("x", DataType::Int)
            .build()
            .unwrap();
        let err = db2.replace_relation(tightened).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot replace relation `R`: attribute `x` changed from nullable to not null"
        );
    }

    #[test]
    fn replace_unknown_relation_rejected() {
        let mut db = db();
        let rel = RelationBuilder::new("Kids")
            .attr("ID", DataType::Str)
            .build()
            .unwrap();
        assert!(matches!(
            db.replace_relation(rel),
            Err(Error::UnknownRelation(_))
        ));
    }

    #[test]
    fn display_includes_schema_and_constraints() {
        let mut db = db();
        db.constraints
            .foreign_keys
            .push(ForeignKey::simple("Children", "ID", "Parents", "ID"));
        let s = db.to_string();
        assert!(s.contains("Children (ID str not null)"));
        assert!(s.contains("fk Children(ID) -> Parents(ID)"));
    }
}
