//! Regenerate every paper figure as ASCII tables.
//!
//! ```sh
//! cargo run -p clio-bench --bin figures            # all figures
//! cargo run -p clio-bench --bin figures -- f8 f9   # a subset
//! ```

use clio_core::association::AssociationSet;
use clio_core::correspondence::ValueCorrespondence;
use clio_core::focus::{focused_examples, Focus};
use clio_core::full_disjunction::{full_associations, full_disjunction};
use clio_core::illustration::Illustration;
use clio_core::mapping::Mapping;
use clio_core::operators::chase::data_chase;
use clio_core::operators::walk::data_walk;
use clio_core::query_graph::{Node, QueryGraph};
use clio_core::sql::{generate_sql, SqlOptions};
use clio_core::subgraph::connected_subsets;
use clio_datagen::paper::{
    example_3_15_mapping, figure6_graph, kids_target, paper_database, paper_knowledge,
    running_graph, section2_mapping,
};
use clio_relational::error::Result;
use clio_relational::funcs::FuncRegistry;
use clio_relational::index::ValueIndex;
use clio_relational::parser::parse_expr;
use clio_relational::value::Value;

fn wanted(args: &[String], key: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(key))
}

fn heading(title: &str) {
    println!("\n================ {title} ================");
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let db = paper_database();
    let funcs = FuncRegistry::with_builtins();

    if wanted(&args, "f1") {
        heading("Figure 1: source database");
        print!("{db}");
    }

    if wanted(&args, "f2") {
        heading("Figure 2: correspondences v1, v2 and the target sample");
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children"))?;
        let m = Mapping::new(g, kids_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
            .with_target_not_null_filters();
        println!("(a) correspondences:");
        for v in &m.correspondences {
            println!("    {v}");
        }
        println!("(b) source sample (Children):");
        print!("{}", db.relation("Children")?);
        println!("(c) current target:");
        print!("{}", m.evaluate(&db, &funcs)?);
    }

    if wanted(&args, "f3") {
        heading("Figure 3: two ways of associating children with affiliations");
        let knowledge = paper_knowledge();
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children"))?;
        let m = Mapping::new(g, kids_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_target_not_null_filters();
        // correspondence references Parents; enumerate the walks
        let base = {
            let mut g = QueryGraph::new();
            g.add_node(Node::new("Children"))?;
            let mut b = m.clone();
            b.graph = g;
            b.correspondences.retain(|c| c.target_attr != "affiliation");
            b
        };
        let alts = data_walk(&base, &db, &knowledge, "Children", "Parents", 2, &funcs)?;
        for (i, alt) in alts.iter().enumerate() {
            let mut scenario = alt.mapping.clone();
            scenario.set_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ));
            println!("\nScenario {}: {}", i + 1, alt.description);
            // focused on Maya, the example the user knows
            let node = scenario.graph.node_by_alias("Children").unwrap();
            let focus = Focus::on_value(&scenario, &db, node, "ID", &Value::str("002"))?;
            let examples = focused_examples(&scenario, &db, &funcs, &focus)?;
            let scheme = scenario.graph.scheme(&db)?;
            let refs: Vec<&clio_core::example::Example> = examples.iter().collect();
            print!(
                "{}",
                clio_core::example::render_examples(&scenario.graph, &scheme, &refs)
            );
        }
    }

    if wanted(&args, "f4") {
        heading("Figure 4: scenarios associating children with phone numbers");
        let knowledge = paper_knowledge();
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children"))?;
        let p = g.add_node(Node::new("Parents"))?;
        g.add_edge(c, p, parse_expr("Children.fid = Parents.ID")?)?;
        let m = Mapping::new(g, kids_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_target_not_null_filters();
        let alts = data_walk(&m, &db, &knowledge, "Children", "PhoneDir", 3, &funcs)?;
        for (i, alt) in alts.iter().enumerate() {
            println!("\nScenario {}: {}", i + 1, alt.description);
            println!("{}", alt.mapping.graph);
        }
    }

    if wanted(&args, "f5") {
        heading("Figure 5: chasing value 002 (Maya's ID)");
        let index = ValueIndex::build(&db);
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children"))?;
        let m = Mapping::new(g, kids_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
        let alts = data_chase(
            &m,
            &db,
            &index,
            "Children",
            "ID",
            &Value::str("002"),
            &funcs,
        )?;
        for (i, alt) in alts.iter().enumerate() {
            println!("Scenario {}: {}", i + 1, alt.description);
        }
    }

    if wanted(&args, "f6") {
        heading("Figure 6: query graphs and Example 3.12 subgraphs");
        let g = figure6_graph();
        print!("{g}");
        let subs = connected_subsets(&g);
        let tags: Vec<String> = subs.iter().map(|&s| g.coverage_tag(s)).collect();
        println!("induced connected subgraphs: {}", tags.join(", "));
    }

    if wanted(&args, "f7") {
        heading("Figure 7: data associations t, u, v");
        let g = figure6_graph();
        let scheme = g.scheme(&db)?;
        let f_cp = full_associations(&db, &g, 0b011, &funcs)?;
        let t = f_cp
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("002"))
            .expect("Maya")
            .clone();
        let u = AssociationSet::pad_row(&scheme, f_cp.scheme(), &t)?;
        let f_full = full_associations(&db, &g, 0b111, &funcs)?;
        let v_row = f_full
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("002"))
            .expect("Maya full")
            .clone();
        let v = AssociationSet::pad_row(&scheme, f_full.scheme(), &v_row)?;
        let rows = vec![u.clone(), v.clone()];
        let tags = vec!["u (possible, padded)".to_owned(), "v (full)".to_owned()];
        print!(
            "{}",
            clio_relational::display::render_table(&scheme, &rows, &tags)
        );
        println!(
            "v strictly subsumes u: {}",
            clio_relational::ops::strictly_subsumes(&v, &u)
        );
    }

    if wanted(&args, "f8") {
        heading("Figure 8: D(G) of the running graph, tagged with coverage");
        let g = running_graph();
        let mut d = full_disjunction(&db, &g, &funcs)?;
        d.sort_canonical(&g);
        print!("{}", d.render(&g));
    }

    if wanted(&args, "f9") {
        heading("Figure 9: minimal sufficient illustration of Example 3.15");
        let m = example_3_15_mapping();
        let population = m.examples(&db, &funcs)?;
        let ill = Illustration::minimal_sufficient(&population, m.target.arity());
        let scheme = m.graph.scheme(&db)?;
        print!("{}", ill.render(&m.graph, &scheme));
        let (pos, neg) = ill.polarity_counts();
        println!("{pos} positive / {neg} negative example(s)");
    }

    if wanted(&args, "f10") || wanted(&args, "f11") {
        heading("Figures 10-11: walks(G1, Children, PhoneDir)");
        let knowledge = paper_knowledge();
        let mut g1 = QueryGraph::new();
        let c = g1.add_node(Node::new("Children"))?;
        let p = g1.add_node(Node::new("Parents"))?;
        g1.add_edge(c, p, parse_expr("Children.fid = Parents.ID")?)?;
        let m = Mapping::new(g1, kids_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
        let alts = data_walk(&m, &db, &knowledge, "Children", "PhoneDir", 3, &funcs)?;
        for (i, alt) in alts.iter().enumerate() {
            println!("\nG{}: {}", i + 2, alt.description);
            println!("{}", alt.mapping.graph);
        }
    }

    if wanted(&args, "f12") {
        heading("Figure 12: chase extensions of G1");
        let index = ValueIndex::build(&db);
        let m = Mapping::new(figure6_graph(), kids_target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
        let alts = data_chase(
            &m,
            &db,
            &index,
            "Children",
            "ID",
            &Value::str("002"),
            &funcs,
        )?;
        for alt in &alts {
            println!("{}", alt.mapping.graph);
        }
    }

    if wanted(&args, "sql") {
        heading("Section 2: generated SQL for the final mapping");
        let sql = generate_sql(
            &section2_mapping(),
            &db,
            &SqlOptions {
                root: Some("Children".into()),
                create_view: true,
            },
        )?;
        println!("{sql}");
    }

    Ok(())
}
