//! Mapping refinement at the session level: the paper's Section-6
//! scenarios.
//!
//! * **Example 6.1** — accept *two* complementary mappings for one target
//!   (mother's phone when there is a mother, father's otherwise) using
//!   filters `mid IS NOT NULL` / `mid IS NULL`.
//! * **Example 6.2** — a second correspondence for an already-mapped
//!   attribute spawns an alternative mapping that reuses the query graph
//!   and all other correspondences.
//! * Data trimming with positive/negative example feedback.
//!
//! ```sh
//! cargo run --example refinement_session
//! ```

use clio::prelude::*;

fn main() -> Result<()> {
    let db = paper_database();
    let funcs = FuncRegistry::with_builtins();

    println!("==== Example 6.1: complementary mappings for contactPh ====");
    // Mapping A: phone via the mother (mid); loses motherless children.
    let knowledge = paper_knowledge();
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children"))?;
    g.add_node(Node::new("Parents"))?;
    g.add_edge(c, 1, parse_expr("Children.mid = Parents.ID")?)?;
    let base = Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
        .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
        .with_target_not_null_filters();
    let walks = data_walk(&base, &db, &knowledge, "Parents", "PhoneDir", 3, &funcs)?;
    let mut mapping_a = walks[0].mapping.clone();
    mapping_a.set_correspondence(ValueCorrespondence::identity(
        "PhoneDir.number",
        "contactPh",
    ));
    let mapping_a = mapping_a.with_source_filter(parse_expr("Children.mid IS NOT NULL")?);

    // Its illustration shows the problem: motherless children vanish.
    let out_a = mapping_a.evaluate(&db, &funcs)?;
    println!("mapping A (mother's phone) produces {} kids:", out_a.len());
    print!("{out_a}");

    // Mapping B: father's phone, only when there is no mother.
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children"))?;
    let p = g.add_node(Node::new("Parents"))?;
    let ph = g.add_node(Node::new("PhoneDir"))?;
    g.add_edge(c, p, parse_expr("Children.fid = Parents.ID")?)?;
    g.add_edge(p, ph, parse_expr("PhoneDir.ID = Parents.ID")?)?;
    let mapping_b = Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
        .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
        .with_correspondence(ValueCorrespondence::identity(
            "PhoneDir.number",
            "contactPh",
        ))
        .with_source_filter(parse_expr("Children.mid IS NULL")?)
        .with_target_not_null_filters();
    let out_b = mapping_b.evaluate(&db, &funcs)?;
    println!(
        "\nmapping B (father's phone for motherless kids) produces {} kid(s):",
        out_b.len()
    );
    print!("{out_b}");

    // The accepted union covers everyone exactly once.
    let mut union = Table::empty(out_a.scheme().clone());
    for row in out_a.rows().iter().chain(out_b.rows()) {
        union.push_distinct(row.clone());
    }
    println!("\nunion of both accepted mappings ({} kids):", union.len());
    print!("{union}");

    println!("\n==== Example 6.2: alternative computation of an attribute ====");
    // BusSchedule from SBPS; then a second correspondence computes it
    // from a different source (docid as a stand-in for class schedules).
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children"))?;
    let s = g.add_node(Node::new("SBPS"))?;
    g.add_edge(c, s, parse_expr("Children.ID = SBPS.ID")?)?;
    let with_bus = Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
        .with_correspondence(ValueCorrespondence::identity("SBPS.time", "BusSchedule"))
        .with_target_not_null_filters();

    let mut rolled_back = QueryGraph::new();
    rolled_back.add_node(Node::new("Children"))?;
    let outcome = add_correspondence(
        &with_bus,
        ValueCorrespondence::parse("'computed-from-' || Children.docid", "BusSchedule")?,
        Some(&rolled_back),
    );
    match outcome {
        AddOutcome::NewAlternative {
            alternative,
            replaced,
        } => {
            println!(
                "spawned an alternative mapping (replacing `{}`):",
                replaced.expr
            );
            print!("{}", clio_lang::print_mapping(&alternative));
            println!(
                "reused correspondences: {}",
                alternative.correspondences.len()
            );
        }
        AddOutcome::Extended(_) => unreachable!("BusSchedule was already mapped"),
    }

    println!("==== data trimming with example feedback ====");
    let trimmed = require_target_attribute(&with_bus, "BusSchedule");
    let effect = trim_effect(&with_bus, &trimmed, &db, &funcs)?;
    println!(
        "requiring BusSchedule: positives {} -> {}; newly negative examples:",
        effect.positive_before, effect.positive_after
    );
    for e in &effect.newly_negative {
        println!("  kid {} (BusSchedule is null)", e.target[0]);
    }
    Ok(())
}
