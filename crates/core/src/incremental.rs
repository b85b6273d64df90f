//! Incremental evaluation: structural fingerprints for query graphs and
//! mappings, and cache-routed full disjunction.
//!
//! The paper's interactive loop (Sec 5.3, Sec 6) refines one mapping
//! state into the next — each operator changes a single edge, filter, or
//! correspondence, so most per-subgraph full data associations `F(J)`
//! and most mapping-query results survive the step unchanged. This
//! module keys those results by **structural fingerprints** and stores
//! them in a [`clio_incr::EvalCache`]:
//!
//! * `F(J)` — one entry per induced connected subgraph, keyed by the
//!   subgraph's node aliases/relations, its induced edge predicates, and
//!   a content version per base relation. Cached *unpadded*, so growing
//!   the graph reuses every old subgraph and computes only the ones
//!   touching new nodes or edges.
//! * `D(G)` — the assembled full disjunction per graph and algorithm.
//! * `Q(M)` — the evaluated mapping query per full mapping state
//!   (graph + correspondences + source filters + target filters).
//!
//! Caching is answer-invisible: the plan executor ([`crate::plan`]) is
//! the only evaluation pipeline, and without a cache it runs the same
//! code with every lookup missing. Lookups are keyed by exactly the
//! ingredients the computation reads, assembly happens in the same
//! canonical order, and a property test in `tests/properties.rs`
//! replays random operator sequences cache-on vs. cache-off. See
//! `docs/incremental.md` for the full scheme.

use clio_incr::{EvalCache, Fingerprint, FingerprintBuilder};
use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::funcs::FuncRegistry;

use crate::association::AssociationSet;
use crate::mapping::Mapping;
use crate::plan::{full_disjunction_stage, BranchInfo, PlanAlgo};
use crate::query_graph::QueryGraph;
use crate::subgraph::connected_subsets;

/// Mix a graph's full structure into a fingerprint: every node (alias,
/// stored relation, content version) in id order, every edge (endpoint
/// ids, predicate text) in insertion order, plus the cache epoch. Node
/// and edge *order* are deliberately part of the digest — join order,
/// and therefore output column and row order, depend on them.
fn hash_graph(fp: &mut FingerprintBuilder, graph: &QueryGraph, cache: &EvalCache) {
    fp.number(cache.epoch());
    for n in graph.nodes() {
        fp.text(&n.alias)
            .text(&n.relation)
            .number(cache.version(&n.relation));
    }
    for e in graph.edges() {
        fp.number(e.a as u64)
            .number(e.b as u64)
            .text(&e.predicate.to_string());
    }
}

/// Fingerprint of the full data associations `F(J)` of the induced
/// subgraph `mask`: the member nodes (with ids, so the join order is
/// captured), the induced edges, and the content versions involved.
#[must_use]
pub fn subgraph_fingerprint(graph: &QueryGraph, mask: u64, cache: &EvalCache) -> Fingerprint {
    let mut fp = FingerprintBuilder::new("F(J)");
    fp.number(cache.epoch());
    for (i, n) in graph.nodes().iter().enumerate() {
        if mask & (1 << i) != 0 {
            fp.number(i as u64)
                .text(&n.alias)
                .text(&n.relation)
                .number(cache.version(&n.relation));
        }
    }
    for e in graph.edges() {
        if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
            fp.number(e.a as u64)
                .number(e.b as u64)
                .text(&e.predicate.to_string());
        }
    }
    fp.finish()
}

/// Fingerprint of the assembled `D(G)` under a given algorithm tag
/// (`"D(G).tree"` / `"D(G).naive"` — the two plans emit different row
/// orders, so they must not share entries).
#[must_use]
pub fn graph_fingerprint(graph: &QueryGraph, cache: &EvalCache, tag: &str) -> Fingerprint {
    let mut fp = FingerprintBuilder::new(tag);
    hash_graph(&mut fp, graph, cache);
    fp.finish()
}

/// Fingerprint of a full mapping query `Q(M)`: the graph plus the
/// correspondences, source filters, target filters, and target schema.
/// The plan executor stores every `Q(M)` result under it.
#[must_use]
pub fn mapping_fingerprint(mapping: &Mapping, cache: &EvalCache) -> Fingerprint {
    let mut fp = FingerprintBuilder::new("Q(M)");
    hash_graph(&mut fp, &mapping.graph, cache);
    for v in &mapping.correspondences {
        fp.text(&v.expr.to_string()).text(&v.target_attr);
    }
    for e in &mapping.source_filters {
        fp.text(&e.to_string());
    }
    for e in &mapping.target_filters {
        fp.text(&e.to_string());
    }
    fp.text(&mapping.target.to_string());
    fp.finish()
}

/// The base relations a graph's evaluation reads (sorted, deduplicated)
/// — the dependency set declared on cache entries.
#[must_use]
pub fn relation_deps(graph: &QueryGraph) -> Vec<String> {
    let mut deps: Vec<String> = graph.nodes().iter().map(|n| n.relation.clone()).collect();
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Compute `D(G)` through the cache: the graph's plan — the outer-join
/// chain on trees, the minimum union over every connected subgraph
/// otherwise — run by the plan executor. The assembled result is
/// memoized per graph and strategy, and the minimum-union plan
/// additionally memoizes each subgraph's `F(J)`, so an edit to one
/// relation recomputes only the subgraphs touching it. `cache: None`
/// (or a disabled cache) runs the same code with every lookup missing.
pub fn full_disjunction_cached(
    db: &Database,
    graph: &QueryGraph,
    funcs: &FuncRegistry,
    cache: Option<&EvalCache>,
) -> Result<AssociationSet> {
    let cache = cache.filter(|c| c.enabled());
    let algo = PlanAlgo::for_graph(graph);
    let branches = || BranchInfo::probe(db, graph, &connected_subsets(graph), cache);
    full_disjunction_stage(db, graph, algo, branches, &[], &[], funcs, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_disjunction::full_disjunction;
    use crate::query_graph::Node;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "201".into()])
                .row(vec!["002".into(), "202".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .attr("affiliation", DataType::Str)
                .row(vec!["201".into(), "IBM".into()])
                .row(vec!["202".into(), "UofT".into()])
                .row(vec!["205".into(), "MIT".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("PhoneDir")
                .attr_not_null("ID", DataType::Str)
                .attr("number", DataType::Str)
                .row(vec!["201".into(), "555-0101".into()])
                .row(vec!["202".into(), "555-0102".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn tree_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g
    }

    fn cyclic_graph() -> QueryGraph {
        let mut g = tree_graph();
        let ph = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        g.add_edge(1, ph, parse_expr("PhoneDir.ID = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(0, ph, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        g
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn cached_fd_is_byte_identical_on_trees_and_cycles() {
        for g in [tree_graph(), cyclic_graph()] {
            let cache = EvalCache::new();
            let plain = full_disjunction(&db(), &g, &funcs()).unwrap();
            for _ in 0..2 {
                let cached = full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
                assert_eq!(plain.table().scheme(), cached.table().scheme());
                assert_eq!(plain.table().rows(), cached.table().rows());
            }
            assert!(cache.stats().hits >= 1, "second run must hit");
        }
    }

    #[test]
    fn version_bump_recomputes_only_affected_subgraphs() {
        let g = cyclic_graph();
        let cache = EvalCache::new();
        full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        let cold_misses = cache.stats().misses;
        // a PhoneDir edit keeps every Children/Parents-only subgraph
        cache.bump_version("PhoneDir");
        full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        let warm = cache.stats();
        let warm_misses = warm.misses - cold_misses;
        assert!(
            warm_misses < cold_misses,
            "post-edit run should reuse untouched subgraphs \
             (cold {cold_misses} vs warm {warm_misses})"
        );
        assert!(warm.hits >= 1, "untouched subgraphs must be served");
        assert!(warm.invalidations >= 1);
        // and the recomputed result is still correct
        let plain = full_disjunction(&db(), &g, &funcs()).unwrap();
        let cached = full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        assert_eq!(plain.table().rows(), cached.table().rows());
    }

    #[test]
    fn cache_tiers_record_distinct_histogram_keys() {
        let _guard = crate::obs_testutil::lock();
        clio_obs::set_trace_enabled(true);
        clio_obs::clear_histograms();
        let g = tree_graph();
        let cache = EvalCache::new();
        let store = std::sync::Arc::new(clio_incr::MemStore::new());
        cache.set_store(Some(store));
        // cold: computes and spills
        full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        // disk hit: memory dropped, the store answers
        cache.clear();
        full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        // memory hit: the disk load warmed the memory tier
        full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        clio_obs::set_trace_enabled(false);
        let _ = clio_obs::take_spans();
        clio_obs::clear_events();
        let hists = clio_obs::snapshot_histograms();
        clio_obs::clear_histograms();
        for key in ["incr.fd.cold", "incr.fd.disk_hit", "incr.fd.memory_hit"] {
            let (_, h) = hists
                .iter()
                .find(|(n, _)| *n == key)
                .unwrap_or_else(|| panic!("missing histogram key {key}"));
            assert!(h.count >= 1, "{key} recorded nothing");
        }
        let s = cache.stats();
        assert!(s.hits >= 1, "memory tier never hit: {s:?}");
    }

    /// The histograms `f` alone records: it runs under a private
    /// session label, so concurrent tests tracing into the global table
    /// cannot leak into the counts.
    fn private_histograms(
        label: u64,
        f: impl FnOnce(),
    ) -> Vec<(&'static str, clio_obs::HistSnapshot)> {
        clio_obs::metrics::with_session(Some(label), || {
            f();
            clio_obs::hist::context_histograms()
        })
    }

    #[test]
    fn cold_runs_record_entry_costs_and_scheduled_histogram() {
        let _guard = crate::obs_testutil::lock();
        clio_obs::set_trace_enabled(true);
        clio_obs::clear_histograms();
        let g = cyclic_graph(); // non-tree: takes the scheduled naive plan
        let cache = EvalCache::new();
        let hists = private_histograms(0xC01D, || {
            full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        });
        clio_obs::set_trace_enabled(false);
        let _ = clio_obs::take_spans();
        clio_obs::clear_events();
        clio_obs::clear_histograms();
        let (_, h) = hists
            .iter()
            .find(|(n, _)| *n == "incr.fd.scheduled")
            .expect("cold naive run must record scheduled-subgraph costs");
        let n_subgraphs = connected_subsets(&g).len() as u64;
        assert_eq!(h.count, n_subgraphs, "one cost per computed subgraph");
        // the measured costs seeded the cache's cost model
        assert!(
            cache.estimate_cost(&relation_deps(&g)).is_some(),
            "subgraph entries must carry measured costs"
        );
    }

    #[test]
    fn warm_subgraphs_are_never_dispatched() {
        let _guard = crate::obs_testutil::lock();
        clio_obs::set_trace_enabled(true);
        let g = cyclic_graph();
        let cache = EvalCache::new();
        full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        // a PhoneDir edit leaves the Children/Parents subgraphs warm:
        // only the PhoneDir-touching ones may be scheduled
        cache.bump_version("PhoneDir");
        let hists = private_histograms(0x3A73, || {
            full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
        });
        clio_obs::set_trace_enabled(false);
        let _ = clio_obs::take_spans();
        clio_obs::clear_events();
        clio_obs::clear_histograms();
        let scheduled = hists
            .iter()
            .find(|(n, _)| *n == "incr.fd.scheduled")
            .map_or(0, |(_, h)| h.count);
        let total = connected_subsets(&g).len() as u64;
        assert!(
            scheduled > 0 && scheduled < total,
            "post-edit run must dispatch only the cold subset \
             ({scheduled} of {total})"
        );
    }

    #[test]
    fn none_and_disabled_caches_store_nothing() {
        for g in [tree_graph(), cyclic_graph()] {
            let plain = full_disjunction(&db(), &g, &funcs()).unwrap();
            let cache = EvalCache::new();
            cache.set_enabled(false);
            let off = full_disjunction_cached(&db(), &g, &funcs(), Some(&cache)).unwrap();
            assert_eq!(plain.table().rows(), off.table().rows());
            assert_eq!(cache.stats().entries, 0);
        }
    }

    #[test]
    fn fingerprints_separate_structure_versions_and_algorithms() {
        let cache = EvalCache::new();
        let tree = tree_graph();
        let cyc = cyclic_graph();
        assert_ne!(
            graph_fingerprint(&tree, &cache, "D(G).tree"),
            graph_fingerprint(&cyc, &cache, "D(G).tree")
        );
        assert_ne!(
            graph_fingerprint(&tree, &cache, "D(G).tree"),
            graph_fingerprint(&tree, &cache, "D(G).naive")
        );
        let before = graph_fingerprint(&tree, &cache, "D(G).tree");
        cache.bump_version("Parents");
        assert_ne!(before, graph_fingerprint(&tree, &cache, "D(G).tree"));
        // subgraphs not touching Parents keep their fingerprint
        let mask_children = 0b001;
        let a = subgraph_fingerprint(&cyc, mask_children, &cache);
        cache.bump_version("Parents");
        assert_eq!(a, subgraph_fingerprint(&cyc, mask_children, &cache));
        cache.bump_version("Children");
        assert_ne!(a, subgraph_fingerprint(&cyc, mask_children, &cache));
    }

    #[test]
    fn mapping_fingerprint_tracks_every_component() {
        use crate::correspondence::ValueCorrespondence;
        use clio_relational::schema::{Attribute, RelSchema};
        let cache = EvalCache::new();
        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap();
        let base = Mapping::new(tree_graph(), target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
        let fp = mapping_fingerprint(&base, &cache);
        let with_corr = base
            .clone()
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ));
        assert_ne!(fp, mapping_fingerprint(&with_corr, &cache));
        let with_source = base
            .clone()
            .with_source_filter(parse_expr("Children.mid IS NOT NULL").unwrap());
        assert_ne!(fp, mapping_fingerprint(&with_source, &cache));
        let with_target = base
            .clone()
            .with_target_filter(parse_expr("Kids.ID IS NOT NULL").unwrap());
        assert_ne!(fp, mapping_fingerprint(&with_target, &cache));
        assert_ne!(
            mapping_fingerprint(&with_source, &cache),
            mapping_fingerprint(&with_target, &cache)
        );
    }

    #[test]
    fn epoch_bump_changes_all_fingerprints() {
        let cache = EvalCache::new();
        let g = tree_graph();
        let a = graph_fingerprint(&g, &cache, "D(G).tree");
        let s = subgraph_fingerprint(&g, 0b11, &cache);
        cache.bump_epoch();
        assert_ne!(a, graph_fingerprint(&g, &cache, "D(G).tree"));
        assert_ne!(s, subgraph_fingerprint(&g, 0b11, &cache));
    }
}
