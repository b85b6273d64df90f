//! The reconstructed paper dataset (Figure 1) and the mappings of the
//! running example.
//!
//! The SIGMOD-2001 paper's figures are partly unreadable in the available
//! text, so the instance below is *reconstructed* to satisfy every fact
//! the prose asserts:
//!
//! * Maya is child `002`, under 7, and the user's focus example (Sec 2);
//! * the children of Figure 9's focus are `001`, `002`, `004`, `009`;
//! * `Children.mid` and `Children.fid` are foreign keys to `Parents.ID`
//!   (Sec 2: "Clio is aware of two foreign keys, mid and fid");
//! * "there are no parents in the database who have children and no
//!   phone", so no association has coverage `CP` (Example 4.3) — in fact
//!   every parent has a phone here, matching Figure 9's categories;
//! * every child has a father, so no association has coverage `C`, and
//!   consequently none has `CPS` (Example 4.3);
//! * chasing `002` finds it in **one** attribute of `SBPS` and **two**
//!   attributes of the Christmas-bazaar relation (Sec 2 / Figure 5);
//! * two children ride the school bus, so Figure 9's `CPPhS` category has
//!   two members and stays sufficient when one is dropped (Example 4.3);
//! * parent `205` is childless (Example 4.8 focuses *away* from it);
//! * `Parents.salary` exists for the `FamilyIncome` correspondence
//!   (Example 3.2), `Parents.address` for the Section-2 SQL, and
//!   `PhoneDir.type`/`number` for the `concat` correspondence of
//!   Example 3.15;
//! * one child (`004`, Tom) is motherless, driving Example 6.1's
//!   complementary-filter scenario; one child (`009`, Ben) is 9 years
//!   old, trimmed by the `Children.age < 7` filter of Example 3.13.

use clio_core::correspondence::ValueCorrespondence;
use clio_core::knowledge::SchemaKnowledge;
use clio_core::mapping::Mapping;
use clio_core::query_graph::{Node, QueryGraph};
use clio_relational::constraints::{ForeignKey, Key};
use clio_relational::database::Database;
use clio_relational::parser::parse_expr;
use clio_relational::relation::RelationBuilder;
use clio_relational::schema::{Attribute, RelSchema};
use clio_relational::value::{DataType, Value};

/// Build the Figure-1 source database.
///
/// # Panics
/// Never — the instance is static and valid by construction.
#[must_use]
pub fn paper_database() -> Database {
    let mut db = Database::new();

    db.add_relation(
        RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("name", DataType::Str)
            .attr("age", DataType::Int)
            .attr("mid", DataType::Str)
            .attr("fid", DataType::Str)
            .attr("docid", DataType::Str)
            .row(vec![
                "001".into(),
                "Anna".into(),
                6i64.into(),
                "201".into(),
                "202".into(),
                "D1".into(),
            ])
            .row(vec![
                "002".into(),
                "Maya".into(),
                4i64.into(),
                "203".into(),
                "204".into(),
                "D2".into(),
            ])
            .row(vec![
                "004".into(),
                "Tom".into(),
                5i64.into(),
                Value::Null,
                "202".into(),
                "D3".into(),
            ])
            .row(vec![
                "009".into(),
                "Ben".into(),
                9i64.into(),
                "206".into(),
                "207".into(),
                "D4".into(),
            ])
            .build()
            .expect("static Children relation"),
    )
    .expect("fresh name");

    db.add_relation(
        RelationBuilder::new("Parents")
            .attr_not_null("ID", DataType::Str)
            .attr("affiliation", DataType::Str)
            .attr("address", DataType::Str)
            .attr("salary", DataType::Int)
            .row(vec![
                "201".into(),
                "IBM".into(),
                "12 Oak St".into(),
                90_000i64.into(),
            ])
            .row(vec![
                "202".into(),
                "UofT".into(),
                "12 Oak St".into(),
                85_000i64.into(),
            ])
            .row(vec![
                "203".into(),
                "Almaden".into(),
                "7 Pine Rd".into(),
                95_000i64.into(),
            ])
            .row(vec![
                "204".into(),
                "AT&T".into(),
                "7 Pine Rd".into(),
                88_000i64.into(),
            ])
            .row(vec![
                "205".into(),
                "MIT".into(),
                "9 Maple Ave".into(),
                99_000i64.into(),
            ])
            .row(vec![
                "206".into(),
                "Acme".into(),
                "3 Elm Ct".into(),
                70_000i64.into(),
            ])
            .row(vec![
                "207".into(),
                "Initech".into(),
                "3 Elm Ct".into(),
                72_000i64.into(),
            ])
            .build()
            .expect("static Parents relation"),
    )
    .expect("fresh name");

    db.add_relation(
        RelationBuilder::new("PhoneDir")
            .attr_not_null("ID", DataType::Str)
            .attr("type", DataType::Str)
            .attr("number", DataType::Str)
            .row(vec!["201".into(), "home".into(), "555-0101".into()])
            .row(vec!["202".into(), "work".into(), "555-0102".into()])
            .row(vec!["203".into(), "home".into(), "555-0103".into()])
            .row(vec!["204".into(), "work".into(), "555-0104".into()])
            .row(vec!["205".into(), "home".into(), "555-0105".into()])
            .row(vec!["206".into(), "home".into(), "555-0106".into()])
            .row(vec!["207".into(), "work".into(), "555-0107".into()])
            .build()
            .expect("static PhoneDir relation"),
    )
    .expect("fresh name");

    // "School Bus Pickup Schedule" — the cryptically named relation
    db.add_relation(
        RelationBuilder::new("SBPS")
            .attr_not_null("ID", DataType::Str)
            .attr_not_null("time", DataType::Str)
            .attr("location", DataType::Str)
            .row(vec!["001".into(), "8:05".into(), "Oak & 2nd".into()])
            .row(vec!["002".into(), "8:15".into(), "Main & 1st".into()])
            .build()
            .expect("static SBPS relation"),
    )
    .expect("fresh name");

    db.add_relation(
        RelationBuilder::new("XmasBazaar")
            .attr("seller", DataType::Str)
            .attr("buyer", DataType::Str)
            .attr("item", DataType::Str)
            .row(vec!["002".into(), "001".into(), "cookies".into()])
            .row(vec!["009".into(), "002".into(), "wreath".into()])
            .build()
            .expect("static XmasBazaar relation"),
    )
    .expect("fresh name");

    db.constraints.keys.extend([
        Key::new("Children", vec!["ID"]),
        Key::new("Parents", vec!["ID"]),
        Key::new("PhoneDir", vec!["ID"]),
    ]);
    db.constraints.foreign_keys.extend([
        ForeignKey::simple("Children", "mid", "Parents", "ID"),
        ForeignKey::simple("Children", "fid", "Parents", "ID"),
        ForeignKey::simple("PhoneDir", "ID", "Parents", "ID"),
    ]);
    db
}

/// The target relation `Kids` (Figure 2(c) plus the attributes later
/// examples introduce).
#[must_use]
pub fn kids_target() -> RelSchema {
    RelSchema::new(
        "Kids",
        vec![
            Attribute::not_null("ID", DataType::Str),
            Attribute::new("name", DataType::Str),
            Attribute::new("affiliation", DataType::Str),
            Attribute::new("address", DataType::Str),
            Attribute::new("contactPh", DataType::Str),
            Attribute::new("BusSchedule", DataType::Str),
            Attribute::new("FamilyIncome", DataType::Int),
        ],
    )
    .expect("static Kids schema")
}

/// Clio's schema knowledge for the paper database: the three declared
/// foreign keys (data walks search these; the `SBPS` link is *not* here —
/// it is discovered by the Figure-5 data chase).
#[must_use]
pub fn paper_knowledge() -> SchemaKnowledge {
    SchemaKnowledge::from_database(&paper_database())
}

/// The running query graph used from Example 3.15 onwards:
/// `Children —(fid)— Parents —(ID)— PhoneDir`, plus
/// `Children —(ID)— SBPS`.
///
/// # Panics
/// Never — the graph is static and valid.
#[must_use]
pub fn running_graph() -> QueryGraph {
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children")).expect("fresh alias");
    let p = g.add_node(Node::new("Parents")).expect("fresh alias");
    let ph = g
        .add_node(Node::new("PhoneDir").with_code("Ph"))
        .expect("fresh alias");
    let s = g
        .add_node(Node::new("SBPS").with_code("S"))
        .expect("fresh alias");
    g.add_edge(
        c,
        p,
        parse_expr("Children.fid = Parents.ID").expect("static"),
    )
    .expect("valid edge");
    g.add_edge(
        p,
        ph,
        parse_expr("PhoneDir.ID = Parents.ID").expect("static"),
    )
    .expect("valid edge");
    g.add_edge(c, s, parse_expr("Children.ID = SBPS.ID").expect("static"))
        .expect("valid edge");
    g
}

/// The Figure-6 path graph `Children — Parents — PhoneDir` (Examples 3.4,
/// 3.12), joined on `mid`.
#[must_use]
pub fn figure6_graph() -> QueryGraph {
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children")).expect("fresh alias");
    let p = g.add_node(Node::new("Parents")).expect("fresh alias");
    let ph = g
        .add_node(Node::new("PhoneDir").with_code("Ph"))
        .expect("fresh alias");
    g.add_edge(
        c,
        p,
        parse_expr("Children.mid = Parents.ID").expect("static"),
    )
    .expect("valid edge");
    g.add_edge(
        p,
        ph,
        parse_expr("PhoneDir.ID = Parents.ID").expect("static"),
    )
    .expect("valid edge");
    g
}

/// The Example-3.15 mapping: the running graph with correspondences
/// `v1..v5` (including `concat(Ph.type, ',', Ph.number)`), the source
/// filter `Children.age < 7`, and the target filter
/// `Kids.ID IS NOT NULL`.
#[must_use]
pub fn example_3_15_mapping() -> Mapping {
    Mapping::new(running_graph(), kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
        .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
        .with_correspondence(ValueCorrespondence::identity(
            "Parents.affiliation",
            "affiliation",
        ))
        .with_correspondence(
            ValueCorrespondence::parse("concat(PhoneDir.type, ',', PhoneDir.number)", "contactPh")
                .expect("static expression"),
        )
        .with_correspondence(ValueCorrespondence::identity("SBPS.time", "BusSchedule"))
        .with_source_filter(parse_expr("Children.age < 7").expect("static"))
        .with_target_not_null_filters()
}

/// The final Section-2 mapping behind the generated `CREATE VIEW Kids`
/// query: father (`Parents`, via `fid`) supplies affiliation and address,
/// mother (`Parents2`, via `mid`) supplies the contact phone (the user
/// chose Scenario 2 in Figure 4), and `SBPS` the bus schedule.
#[must_use]
pub fn section2_mapping() -> Mapping {
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children")).expect("fresh alias");
    let p = g.add_node(Node::new("Parents")).expect("fresh alias");
    let p2 = g
        .add_node(Node::copy_of("Parents2", "Parents"))
        .expect("fresh alias");
    let ph = g
        .add_node(Node::new("PhoneDir").with_code("Ph"))
        .expect("fresh alias");
    let s = g
        .add_node(Node::new("SBPS").with_code("S"))
        .expect("fresh alias");
    g.add_edge(
        c,
        p,
        parse_expr("Children.fid = Parents.ID").expect("static"),
    )
    .expect("valid edge");
    g.add_edge(
        c,
        p2,
        parse_expr("Children.mid = Parents2.ID").expect("static"),
    )
    .expect("valid edge");
    g.add_edge(
        p2,
        ph,
        parse_expr("PhoneDir.ID = Parents2.ID").expect("static"),
    )
    .expect("valid edge");
    g.add_edge(c, s, parse_expr("Children.ID = SBPS.ID").expect("static"))
        .expect("valid edge");

    Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
        .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
        .with_correspondence(ValueCorrespondence::identity(
            "Parents.affiliation",
            "affiliation",
        ))
        .with_correspondence(ValueCorrespondence::identity("Parents.address", "address"))
        .with_correspondence(ValueCorrespondence::identity(
            "PhoneDir.number",
            "contactPh",
        ))
        .with_correspondence(ValueCorrespondence::identity("SBPS.time", "BusSchedule"))
        .with_correspondence(
            ValueCorrespondence::parse("Parents.salary + Parents2.salary", "FamilyIncome")
                .expect("static expression"),
        )
        .with_target_not_null_filters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_core::full_disjunction::full_disjunction;
    use clio_relational::funcs::FuncRegistry;
    use clio_relational::index::ValueIndex;

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn database_satisfies_its_own_constraints() {
        paper_database().check_constraints().unwrap();
    }

    #[test]
    fn maya_is_002_and_under_seven() {
        let db = paper_database();
        let maya = db
            .relation("Children")
            .unwrap()
            .rows_where("ID", &Value::str("002"))
            .unwrap();
        assert_eq!(maya.len(), 1);
        assert_eq!(maya[0][1], Value::str("Maya"));
        assert_eq!(maya[0][2], Value::Int(4));
    }

    #[test]
    fn every_parent_with_children_has_a_phone() {
        // Example 4.3: coverage CP must be empty
        let db = paper_database();
        let children = db.relation("Children").unwrap();
        let phones = db.relation("PhoneDir").unwrap();
        for row in children.rows() {
            for idx in [3usize, 4] {
                let pid = &row[idx];
                if pid.is_null() {
                    continue;
                }
                assert!(
                    !phones.rows_where("ID", pid).unwrap().is_empty(),
                    "parent {pid} of child {} has no phone",
                    row[0]
                );
            }
        }
    }

    #[test]
    fn every_child_has_a_father() {
        // Example 4.3: coverage C must be empty (the running graph joins
        // on fid)
        let db = paper_database();
        for row in db.relation("Children").unwrap().rows() {
            assert!(!row[4].is_null(), "child {} has no father", row[0]);
        }
    }

    #[test]
    fn value_002_occurrence_sites_match_figure_5() {
        let db = paper_database();
        let idx = ValueIndex::build(&db);
        let sites = idx.occurrence_sites(&Value::str("002"));
        let external: Vec<_> = sites
            .iter()
            .filter(|(r, _)| r != "Children" && r != "Parents" && r != "PhoneDir")
            .collect();
        assert_eq!(external.len(), 3);
        assert!(external.iter().filter(|(r, _)| r == "SBPS").count() == 1);
        assert!(external.iter().filter(|(r, _)| r == "XmasBazaar").count() == 2);
    }

    #[test]
    fn running_graph_categories_match_example_4_3() {
        let db = paper_database();
        let g = running_graph();
        let d = full_disjunction(&db, &g, &funcs()).unwrap();
        let tags: Vec<String> = d.categories().iter().map(|&c| g.coverage_tag(c)).collect();
        // present: CPPh (kids without bus), CPPhS (kids with bus), PPh
        // (childless parents with phones)
        assert!(tags.contains(&"CPPh".to_owned()));
        assert!(tags.contains(&"CPPhS".to_owned()));
        assert!(tags.contains(&"PPh".to_owned()));
        // absent: CP, C, CPS, P
        for absent in ["CP", "C", "CPS", "P"] {
            assert!(
                !tags.contains(&absent.to_owned()),
                "category {absent} should be empty"
            );
        }
        // two CPPhS members (001 and 002 ride the bus)
        let cpphs_mask = d
            .categories()
            .into_iter()
            .find(|&c| g.coverage_tag(c) == "CPPhS")
            .unwrap();
        assert_eq!(d.in_category(cpphs_mask).len(), 2);
    }

    #[test]
    fn mappings_validate() {
        let db = paper_database();
        example_3_15_mapping().validate(&db, &funcs()).unwrap();
        section2_mapping().validate(&db, &funcs()).unwrap();
    }

    #[test]
    fn example_3_15_trims_ben_by_age() {
        let db = paper_database();
        let out = example_3_15_mapping().evaluate(&db, &funcs()).unwrap();
        let ids: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(ids.contains(&"001".to_owned()));
        assert!(ids.contains(&"002".to_owned()));
        assert!(ids.contains(&"004".to_owned()));
        assert!(
            !ids.contains(&"009".to_owned()),
            "Ben (age 9) must be trimmed"
        );
    }

    #[test]
    fn section2_mapping_fills_every_kid() {
        let db = paper_database();
        let out = section2_mapping().evaluate(&db, &funcs()).unwrap();
        assert_eq!(out.len(), 4);
        // Maya: father's affiliation AT&T, mother's phone 555-0103,
        // bus 8:15, family income 95k + 88k
        let maya = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("002"))
            .unwrap();
        assert_eq!(maya[2], Value::str("AT&T"));
        assert_eq!(maya[4], Value::str("555-0103"));
        assert_eq!(maya[5], Value::str("8:15"));
        assert_eq!(maya[6], Value::Int(183_000));
        // Tom is motherless: no contact phone, no family income, but kept
        let tom = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("004"))
            .unwrap();
        assert!(tom[4].is_null());
        assert!(tom[6].is_null());
        assert_eq!(tom[2], Value::str("UofT"));
    }

    #[test]
    fn knowledge_has_three_foreign_key_specs() {
        let k = paper_knowledge();
        assert_eq!(k.specs().len(), 3);
        assert_eq!(k.specs_between("Children", "Parents").len(), 2);
        assert!(k.specs_between("Children", "SBPS").is_empty());
    }
}
