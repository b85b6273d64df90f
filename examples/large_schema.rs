//! Clio at scale: full disjunctions, illustrations, and walks over larger
//! synthetic schemas, with quick wall-clock comparisons of the naive and
//! optimized algorithms (the Criterion benches in `clio-bench` measure
//! these rigorously; this example is a fast demonstration).
//!
//! ```sh
//! cargo run --release --example large_schema
//! ```

use std::time::Instant;

use clio::prelude::*;

fn main() -> Result<()> {
    let funcs = FuncRegistry::with_builtins();

    println!("== full disjunction: naive vs outer-join plan (chains) ==");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>8}",
        "nodes", "rows", "naive", "outer-join", "|D(G)|"
    );
    for n in [3usize, 5, 7] {
        let spec = SyntheticSpec {
            topology: Topology::Chain,
            relations: n,
            rows: 200,
            match_rate: 0.7,
            payload_attrs: 1,
            seed: 11,
        };
        let w = generate(&spec);

        let t = Instant::now();
        let d1 = full_disjunction_naive(&w.db, &w.graph, &funcs, engine_subsumption())?;
        let naive = t.elapsed();

        let t = Instant::now();
        let d2 = full_disjunction_outer_join(&w.db, &w.graph, &funcs)?;
        let outer = t.elapsed();

        assert_eq!(d1.len(), d2.len(), "algorithms must agree");
        println!(
            "{n:>6} {:>8} {:>12.2?} {:>12.2?} {:>8}",
            spec.rows,
            naive,
            outer,
            d1.len()
        );
    }

    println!("\n== cyclic graph: naive path only ==");
    let spec = SyntheticSpec {
        topology: Topology::Cycle,
        relations: 5,
        rows: 100,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 13,
    };
    let w = generate(&spec);
    let t = Instant::now();
    let d = full_disjunction(&w.db, &w.graph, &funcs)?;
    println!(
        "5-node cycle, 100 rows/rel: {} associations in {:.2?} \
         ({} coverage categories)",
        d.len(),
        t.elapsed(),
        d.categories().len()
    );

    println!("\n== minimal sufficient illustration at scale ==");
    let spec = SyntheticSpec {
        topology: Topology::Star,
        relations: 5,
        rows: 300,
        match_rate: 0.5,
        payload_attrs: 1,
        seed: 17,
    };
    let w = generate(&spec);
    let population = w.mapping.examples(&w.db, &funcs)?;
    let t = Instant::now();
    let ill = Illustration::minimal_sufficient(&population, w.mapping.target.arity());
    println!(
        "population {} examples -> minimal sufficient illustration of {} \
         ({} categories) in {:.2?}",
        population.len(),
        ill.len(),
        ill.category_histogram().len(),
        t.elapsed()
    );
    assert!(is_sufficient(
        &ill.examples,
        &population,
        w.mapping.target.arity(),
        SufficiencyScope::mapping()
    ));

    println!("\n== data walks over a 60-relation knowledge graph ==");
    let knowledge = clio::datagen::synthetic::random_knowledge(60, 30, 23);
    let spec = SyntheticSpec {
        topology: Topology::Chain,
        relations: 2,
        rows: 10,
        match_rate: 1.0,
        payload_attrs: 1,
        seed: 29,
    };
    let w = generate(&spec);
    let mapping = w.mapping.clone();
    let t = Instant::now();
    let paths = knowledge.paths("R0", "R59", 6);
    println!(
        "paths R0 -> R59 (<= 6 steps): {} found in {:.2?}",
        paths.len(),
        t.elapsed()
    );
    let _ = mapping;
    Ok(())
}
