//! `clio-bench` — benchmark harness for the Clio reproduction.
//!
//! One Criterion bench per efficiency claim in the paper (see DESIGN.md,
//! benches B1–B9), plus two binaries:
//!
//! * `figures` — regenerates every paper figure as ASCII tables;
//! * `experiments` — runs the parameter sweeps recorded in
//!   EXPERIMENTS.md and prints one table per experiment.

#![warn(missing_docs)]

use clio_core::full_disjunction::{
    full_disjunction, full_disjunction_naive, full_disjunction_outer_join,
};
use clio_core::mapping::Mapping;
use clio_datagen::synthetic::{generate, Synthetic, SyntheticSpec, Topology};
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::SubsumptionAlgo;
use clio_relational::relation::RelationBuilder;
use clio_relational::schema::{Column, Scheme};
use clio_relational::table::Table;
use clio_relational::value::{DataType, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Standard workload: a chain of `n` relations with `rows` rows each.
#[must_use]
pub fn chain(n: usize, rows: usize) -> Synthetic {
    generate(&SyntheticSpec {
        topology: Topology::Chain,
        relations: n,
        rows,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 0xC11A,
    })
}

/// Standard workload: a star of `n` relations with `rows` rows each.
#[must_use]
pub fn star(n: usize, rows: usize) -> Synthetic {
    generate(&SyntheticSpec {
        topology: Topology::Star,
        relations: n,
        rows,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 0xC11A,
    })
}

/// Standard workload: a cycle of `n` relations with `rows` rows each.
#[must_use]
pub fn cycle(n: usize, rows: usize) -> Synthetic {
    generate(&SyntheticSpec {
        topology: Topology::Cycle,
        relations: n,
        rows,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 0xC11A,
    })
}

/// The B11 session-service workload: a small 2-relation chain (the slice
/// each session actually maps, 400 rows per relation) embedded in a
/// source database padded with `archive_relations` unrelated relations
/// of `archive_rows` string rows each. This is the shape a session
/// service sees — one large shared source instance, many sessions each
/// touching a small part of it — so per-session snapshot setup (deep
/// copy + value-index rebuild) dominates per-session query work, which
/// is exactly the cost `Arc` sharing removes.
#[must_use]
pub fn service_workload(archive_relations: usize, archive_rows: usize) -> Synthetic {
    let mut w = generate(&SyntheticSpec {
        topology: Topology::Chain,
        relations: 2,
        rows: 400,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 0xB11,
    });
    let mut rng = StdRng::seed_from_u64(0xB11);
    for r in 0..archive_relations {
        let mut b = RelationBuilder::new(format!("Archive{r}"));
        for c in 0..4 {
            b = b.attr(format!("a{c}"), DataType::Str);
        }
        for i in 0..archive_rows {
            b = b.row(
                (0..4)
                    .map(|c| Value::str(format!("v{r}_{c}_{}", i ^ rng.random_range(0..1024))))
                    .collect(),
            );
        }
        w.db.add_relation(b.build().expect("valid archive relation"))
            .expect("fresh archive name");
    }
    w
}

/// A random table with `rows` rows, `arity` columns, and roughly
/// `null_rate` nulls — the subsumption-removal workload. Values are drawn
/// from a small domain so that subsumption pairs actually occur.
#[must_use]
pub fn nullable_table(rows: usize, arity: usize, null_rate: f64, seed: u64) -> Table {
    let scheme = Scheme::new(
        (0..arity)
            .map(|i| Column::new("R", format!("a{i}"), DataType::Int))
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Table::empty(scheme);
    for _ in 0..rows {
        let row: Vec<Value> = (0..arity)
            .map(|_| {
                if rng.random::<f64>() < null_rate {
                    Value::Null
                } else {
                    Value::Int(rng.random_range(0..6))
                }
            })
            .collect();
        if row.iter().all(Value::is_null) {
            out.push(vec![Value::Int(0); arity]);
        } else {
            out.push(row);
        }
    }
    out
}

/// The full example population of a workload's mapping (illustration
/// selection input).
#[must_use]
pub fn example_population(w: &Synthetic) -> Vec<clio_core::example::Example> {
    let funcs = FuncRegistry::with_builtins();
    w.mapping.examples(&w.db, &funcs).expect("valid workload")
}

/// Convenience: run the naive full disjunction with a chosen subsumption
/// algorithm (the B1/B2 baselines).
#[must_use]
pub fn fd_naive(w: &Synthetic, algo: SubsumptionAlgo) -> usize {
    let funcs = FuncRegistry::with_builtins();
    full_disjunction_naive(&w.db, &w.graph, &funcs, algo)
        .expect("valid workload")
        .len()
}

/// Convenience: the engine's `D(G)` (the plan executor's choice of
/// algorithm), returning the association count.
#[must_use]
pub fn fd(w: &Synthetic) -> usize {
    let funcs = FuncRegistry::with_builtins();
    full_disjunction(&w.db, &w.graph, &funcs)
        .expect("valid workload")
        .len()
}

/// Convenience: the outer-join `D(G)` (tree workloads only), returning
/// the association count.
#[must_use]
pub fn fd_outer_join(w: &Synthetic) -> usize {
    let funcs = FuncRegistry::with_builtins();
    full_disjunction_outer_join(&w.db, &w.graph, &funcs)
        .expect("valid tree workload")
        .len()
}

/// A `prefix`-relation prefix mapping of a chain workload (evolution
/// baseline: the mapping before the graph was extended).
#[must_use]
pub fn chain_prefix_mapping(w: &Synthetic, prefix: usize) -> Mapping {
    use clio_core::query_graph::{Node, QueryGraph};
    let mut g = QueryGraph::new();
    for i in 0..prefix {
        g.add_node(Node::new(format!("R{i}"))).expect("fresh");
    }
    for i in 0..prefix.saturating_sub(1) {
        g.add_edge(
            i,
            i + 1,
            clio_relational::expr::Expr::col_eq(&format!("R{}.l{i}", i + 1), &format!("R{i}.id")),
        )
        .expect("valid");
    }
    let mut m = w.mapping.clone();
    m.graph = g;
    let keep: Vec<String> = (0..prefix).map(|i| format!("R{i}")).collect();
    m.correspondences.retain(|c| {
        c.source_qualifiers()
            .iter()
            .all(|q| keep.contains(&(*q).to_owned()))
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        assert!(fd(&chain(3, 20)) > 0);
        assert!(fd(&star(3, 20)) > 0);
        assert!(fd(&cycle(4, 10)) > 0);
    }

    #[test]
    fn nullable_table_has_no_all_null_rows() {
        let t = nullable_table(200, 4, 0.5, 1);
        assert_eq!(t.len(), 200);
        assert!(t.rows().iter().all(|r| !r.iter().all(Value::is_null)));
    }

    #[test]
    fn naive_and_optimized_fd_agree_on_bench_workloads() {
        let w = chain(4, 50);
        assert_eq!(
            fd_naive(&w, SubsumptionAlgo::Partitioned),
            fd_outer_join(&w)
        );
        assert_eq!(fd(&w), fd_outer_join(&w));
        assert_eq!(
            fd_naive(&w, SubsumptionAlgo::Naive),
            fd_naive(&w, SubsumptionAlgo::Partitioned)
        );
    }

    #[test]
    fn chain_prefix_mapping_is_valid() {
        let w = chain(4, 20);
        let m = chain_prefix_mapping(&w, 2);
        let funcs = FuncRegistry::with_builtins();
        m.validate(&w.db, &funcs).unwrap();
        assert_eq!(m.graph.node_count(), 2);
    }

    #[test]
    fn example_population_nonempty() {
        let w = chain(3, 20);
        assert!(!example_population(&w).is_empty());
    }
}
