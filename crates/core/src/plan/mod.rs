//! Plan-based mapping evaluation: a typed relational-algebra IR over
//! mapping queries, two rewrites, and the executor — the engine's only
//! `D(G)` / `Q(M)` evaluation pipeline.
//!
//! [`Plan::new`] lowers a [`Mapping`] into a [`RelExpr`] tree describing
//! the work of the paper's definitional mapping query (Def 3.14) —
//! per-subgraph `F(J)` join chains (or the left-deep outer-join chain on
//! trees), the minimum union, source/target filters, and the projection
//! onto the target schema. The tree-vs-cycle choice is the plan's own
//! [`PlanAlgo`] decision. Two rewrites then improve the tree:
//!
//! 1. **Filter pushdown.** A source filter that is *strong* (not true on
//!    an all-null row, [`Expr::is_strong`]) and *extension-stable* (once
//!    true, still true on any row refining its nulls,
//!    [`is_extension_stable`]) commutes with the subsumption pass of the
//!    minimum union: a row's subsumers are exactly its extensions, so
//!    the filter can never keep a row while dropping the subsumer that
//!    would have replaced it, and exact duplicates filter identically.
//!    Such a filter is therefore pushed below the union into every
//!    subgraph branch that binds all of its aliases, and any branch
//!    sharing *no* alias with it is **pruned** outright — every row the
//!    branch contributes is all-null on the filter's columns after
//!    padding, so a strong filter rejects them all. Branches binding
//!    only some aliases stay unfiltered; the authoritative top-level
//!    filters run regardless, so the rewrite only shrinks intermediate
//!    results and can never change the answer.
//! 2. **Warmth-guided subgraph ordering.** Each surviving subgraph is
//!    classified warm/cold via a non-promoting [`EvalCache::peek`] and
//!    priced via [`EvalCache::estimate_cost`] (sibling cost history,
//!    falling back to a row-count heuristic). The executor dispatches
//!    cold subgraphs longest-estimated-first so a straggler cannot
//!    serialize the tail; assembly stays in canonical subgraph order, so
//!    scheduling is answer-invisible.
//!
//! A plan whose rewrites did not fire *is* the definitional evaluation,
//! and "no cache" (`None` or a disabled [`EvalCache`]) runs the same
//! code with every lookup missing. With a cache, the executor shares
//! the incremental layer's entries: per-subgraph `F(J)` tables (stored
//! *unfiltered*; pushed filters are applied after retrieval), the
//! assembled `D(G)` when nothing was pushed, and the final result under
//! [`mapping_fingerprint`]. A property test in `tests/properties.rs`
//! checks the executor against the reference oracles
//! ([`full_disjunction_outer_join`], [`full_disjunction_naive`]) over
//! random graphs × random filters. See `docs/planner.md`.
//!
//! [`full_disjunction_naive`]: crate::full_disjunction::full_disjunction_naive

pub mod explain;
pub mod ir;

pub use ir::{is_extension_stable, FilterScope, RelExpr};

use std::cmp::Reverse;
use std::time::Instant;

use clio_incr::{EvalCache, LookupTier};
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::expr::{BoundExpr, Expr};
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::{minimum_union_all, pad_to};
use clio_relational::table::Table;

use crate::association::AssociationSet;
use crate::full_disjunction::{engine_subsumption, full_associations, full_disjunction_outer_join};
use crate::incremental::{
    graph_fingerprint, mapping_fingerprint, relation_deps, subgraph_fingerprint,
};
use crate::mapping::Mapping;
use crate::query_graph::{NodeId, QueryGraph};
use crate::subgraph::connected_subsets;

/// The full-disjunction strategy a plan commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAlgo {
    /// Tree graph: left-deep full outer joins, no subgraph enumeration.
    OuterJoin,
    /// Cyclic graph: minimum union over all induced connected subgraphs.
    Naive,
}

impl PlanAlgo {
    /// The strategy for `graph`: outer joins on trees, the minimum union
    /// otherwise.
    #[must_use]
    pub(crate) fn for_graph(graph: &QueryGraph) -> PlanAlgo {
        if graph.is_tree() {
            PlanAlgo::OuterJoin
        } else {
            PlanAlgo::Naive
        }
    }

    /// The `D(G)` cache tag: the two strategies emit different row
    /// orders, so they must not share entries.
    fn tag(self) -> &'static str {
        match self {
            PlanAlgo::OuterJoin => "D(G).tree",
            PlanAlgo::Naive => "D(G).naive",
        }
    }
}

/// Scheduling annotation for one surviving subgraph branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// The branch's node mask.
    pub mask: u64,
    /// Estimated recompute cost (`0` for expected-warm branches).
    pub estimate: u64,
    /// Whether the cache held the branch's `F(J)` at plan time.
    pub warm: bool,
}

impl BranchInfo {
    /// The warmth/estimate probe over `masks`: a non-promoting,
    /// non-counting [`EvalCache::peek`] classifies each branch, and cold
    /// ones are priced from sibling cost history, falling back to a
    /// row-count heuristic (always, without a live cache). Probing
    /// cannot change which entries the eviction policy keeps.
    pub(crate) fn probe(
        db: &Database,
        graph: &QueryGraph,
        masks: &[u64],
        cache: Option<&EvalCache>,
    ) -> Vec<BranchInfo> {
        masks
            .iter()
            .map(|&mask| {
                let warm = cache.is_some_and(|c| c.peek(subgraph_fingerprint(graph, mask, c)));
                let estimate = if warm {
                    0
                } else {
                    cache
                        .and_then(|c| c.estimate_cost(&mask_deps(graph, mask)))
                        .unwrap_or_else(|| heuristic_cost(db, graph, mask))
                };
                BranchInfo {
                    mask,
                    estimate,
                    warm,
                }
            })
            .collect()
    }
}

/// An executable plan for one mapping query.
///
/// Built by [`Plan::new`]; run with [`Plan::evaluate`]; rendered with
/// [`Plan::explain`]. [`Mapping::evaluate_cached`] is the usual entry
/// point: it consults the result cache first and builds a plan only on
/// a miss.
#[derive(Debug, Clone)]
pub struct Plan {
    mapping: Mapping,
    root: RelExpr,
    algo: PlanAlgo,
    /// Surviving subgraph branches in canonical order (empty on trees),
    /// parallel to the `Union` node's inputs.
    branches: Vec<BranchInfo>,
    pruned: usize,
    pushed: Vec<Expr>,
    /// Alias masks parallel to `pushed`.
    pushed_masks: Vec<u64>,
}

impl Plan {
    /// Build and rewrite the plan for `mapping`. The cache, when given,
    /// only informs the scheduling annotations — plan *structure* is a
    /// pure function of the mapping and database, so the same mapping
    /// always produces the same algebra.
    pub fn new(
        mapping: &Mapping,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<Plan> {
        let _span = clio_obs::span("plan.build");
        let graph = &mapping.graph;
        let scheme = graph.scheme(db)?;
        let algo = PlanAlgo::for_graph(graph);

        let mut masks: Vec<u64> = Vec::new();
        let mut pushed: Vec<Expr> = Vec::new();
        let mut pushed_masks: Vec<u64> = Vec::new();
        let mut pruned = 0usize;
        if algo == PlanAlgo::Naive {
            masks = connected_subsets(graph);
            for f in &mapping.source_filters {
                let Some(amask) = alias_mask(graph, f) else {
                    continue; // bare or foreign qualifiers: not pushable
                };
                if amask != 0 && is_extension_stable(f) && f.is_strong(&scheme, funcs)? {
                    pushed.push(f.clone());
                    pushed_masks.push(amask);
                }
            }
            if !pushed.is_empty() {
                let before = masks.len();
                // a branch sharing no alias with some pushed (strong)
                // filter is all-null on that filter's columns: drop it
                masks.retain(|&mask| pushed_masks.iter().all(|&pm| pm & mask != 0));
                pruned = before - masks.len();
            }
        }

        let fd = match algo {
            PlanAlgo::OuterJoin => tree_ir(graph)?,
            PlanAlgo::Naive => RelExpr::Union {
                inputs: masks
                    .iter()
                    .map(|&mask| {
                        let mut branch = subgraph_ir(graph, mask);
                        for f in applicable(&pushed, &pushed_masks, mask) {
                            branch = RelExpr::Filter {
                                input: Box::new(branch),
                                predicate: f.clone(),
                                scope: FilterScope::Source,
                                pushed: true,
                            };
                        }
                        branch
                    })
                    .collect(),
                pad: scheme.clone(),
            },
        };
        let mut root = fd;
        for f in &mapping.source_filters {
            root = RelExpr::Filter {
                input: Box::new(root),
                predicate: f.clone(),
                scope: FilterScope::Source,
                pushed: false,
            };
        }
        root = RelExpr::Project {
            input: Box::new(root),
            correspondences: mapping.correspondences.clone(),
            target: mapping.target.clone(),
        };
        for f in &mapping.target_filters {
            root = RelExpr::Filter {
                input: Box::new(root),
                predicate: f.clone(),
                scope: FilterScope::Target,
                pushed: false,
            };
        }
        root.check()?;

        // warmth/estimate annotations (the second rewrite):
        // answer-invisible, so a missing or cold cache only means
        // heuristic estimates
        let branches = BranchInfo::probe(db, graph, &masks, cache.filter(|c| c.enabled()));

        metrics::incr(Counter::PlanBuilt);
        metrics::add(Counter::PlanPushedFilters, pushed.len() as u64);
        metrics::add(Counter::PlanPrunedSubgraphs, pruned as u64);
        Ok(Plan {
            mapping: mapping.clone(),
            root,
            algo,
            branches,
            pruned,
            pushed,
            pushed_masks,
        })
    }

    /// The rewritten algebra tree.
    #[must_use]
    pub fn root(&self) -> &RelExpr {
        &self.root
    }

    /// The committed full-disjunction strategy.
    #[must_use]
    pub fn algo(&self) -> PlanAlgo {
        self.algo
    }

    /// The source filters pushed below the minimum union.
    #[must_use]
    pub fn pushed_filters(&self) -> &[Expr] {
        &self.pushed
    }

    /// How many subgraph branches the pushdown rewrite pruned.
    #[must_use]
    pub fn pruned_subgraphs(&self) -> usize {
        self.pruned
    }

    /// Scheduling annotations for the surviving subgraph branches.
    #[must_use]
    pub fn branches(&self) -> &[BranchInfo] {
        &self.branches
    }

    /// Render the plan as an indented tree (the `explain` output).
    #[must_use]
    pub fn explain(&self) -> String {
        explain::render(self)
    }

    /// The data associations this plan's full-disjunction stage yields:
    /// `D(G)` itself when nothing was pushed (memoized per graph), else
    /// the union of the surviving branches with their pushed filters
    /// applied — which the top-level filters then trim to the same
    /// answer.
    pub fn associations(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<AssociationSet> {
        full_disjunction_stage(
            db,
            &self.mapping.graph,
            self.algo,
            || self.branches.clone(),
            &self.pushed,
            &self.pushed_masks,
            funcs,
            cache.filter(|c| c.enabled()),
        )
    }

    /// Run the plan: the mapping query `Q(M)` — one projection, filter,
    /// and first-occurrence-distinct pass over [`Plan::associations`].
    /// Runs unconditionally ([`Mapping::evaluate_cached`] consults the
    /// result cache *before* building a plan) and memoizes the result
    /// under [`mapping_fingerprint`] when a cache is live.
    pub fn evaluate(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<Table> {
        metrics::incr(Counter::PlanEvals);
        let cache = cache.filter(|c| c.enabled());
        let t0 = Instant::now();
        let assocs = self.associations(db, funcs, cache)?;
        // Exclusive cost: the association step memoizes its own layers,
        // so the result entry is charged only the projection/filter work
        // a recompute would redo when those layers are warm. Charging the
        // whole pipeline would double-count the children and hand this
        // low-reuse aggregate an inflated eviction priority.
        let inner_ns = elapsed_ns(t0);
        let eval = self.mapping.evaluator(db, funcs)?;
        let mut out = Table::empty(self.mapping.target_scheme());
        for i in 0..assocs.len() {
            if let Some(row) = eval.target_row_if_passing(assocs.row(i), funcs)? {
                out.push_distinct(row);
            }
        }
        if let Some(c) = cache {
            c.insert_costed(
                mapping_fingerprint(&self.mapping, c),
                relation_deps(&self.mapping.graph),
                &out,
                elapsed_ns(t0).saturating_sub(inner_ns),
            );
        }
        Ok(out)
    }
}

/// Nanoseconds since `t0`, measured unconditionally (unlike
/// `hist::start`, which is trace-gated): the cache's cost model needs
/// real measurements even when tracing is off.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `D(G)` stage shared by every evaluation: `algo`'s full
/// disjunction over `branches` (computed lazily — only on a cache miss
/// of the minimum-union plan) with the `pushed` filters (alias masks
/// parallel in `pushed_masks`) applied per branch. With nothing pushed
/// the assembled result is memoized under the graph fingerprint;
/// pushed branches are filtered, so no graph-level entry describes
/// them. `cache` must already be filtered to a live cache.
///
/// While tracing is on the stage records `incr.fd.memory_hit` /
/// `incr.fd.disk_hit` / `incr.fd.cold` latencies, the cost data the
/// recompute-cost eviction model wants.
#[allow(clippy::too_many_arguments)]
pub(crate) fn full_disjunction_stage(
    db: &Database,
    graph: &QueryGraph,
    algo: PlanAlgo,
    branches: impl FnOnce() -> Vec<BranchInfo>,
    pushed: &[Expr],
    pushed_masks: &[u64],
    funcs: &FuncRegistry,
    cache: Option<&EvalCache>,
) -> Result<AssociationSet> {
    let _span = clio_obs::span("incr.fd");
    let timer = clio_obs::hist::start();
    let fp = cache
        .filter(|_| pushed.is_empty())
        .map(|c| (c, graph_fingerprint(graph, c, algo.tag())));
    if let Some((c, fp)) = fp {
        if let (Some(table), tier) = c.get_tiered(fp) {
            clio_obs::hist::finish(
                match tier {
                    LookupTier::Memory => "incr.fd.memory_hit",
                    _ => "incr.fd.disk_hit",
                },
                timer,
            );
            return Ok(AssociationSet::from_table(graph, table));
        }
    }
    let t0 = Instant::now();
    // The minimum-union plan memoizes its subgraphs individually, so the
    // graph-level entry is charged only the exclusive assembly cost
    // (padding + minimum union); the tree plan has no cached children
    // and carries its full compute time.
    let (set, children_ns) = match algo {
        PlanAlgo::OuterJoin => (full_disjunction_outer_join(db, graph, funcs)?, 0),
        PlanAlgo::Naive => {
            run_branches(db, graph, &branches(), pushed, pushed_masks, funcs, cache)?
        }
    };
    if let Some((c, fp)) = fp {
        let cost_ns = elapsed_ns(t0).saturating_sub(children_ns);
        c.insert_costed(fp, relation_deps(graph), set.table(), cost_ns);
    }
    clio_obs::hist::finish("incr.fd.cold", timer);
    Ok(set)
}

/// The F(J)-branch executor of the minimum-union plan. Counted lookups
/// run in canonical branch order; the misses are dispatched to the
/// worker pool longest-estimated-first (results return in input order,
/// so scheduling is answer-invisible), each timed and stored
/// *unfiltered* with its measured recompute cost. Every branch then has
/// its applicable pushed filters applied, is padded to the graph scheme,
/// and one n-ary minimum union assembles the result in canonical order.
/// `fd.subgraphs` counts only the subgraphs actually computed.
///
/// Returns the association set with the summed compute time of the
/// subgraphs evaluated this call, so the caller can charge its own
/// graph-level entry the *exclusive* assembly cost.
fn run_branches(
    db: &Database,
    graph: &QueryGraph,
    branches: &[BranchInfo],
    pushed: &[Expr],
    pushed_masks: &[u64],
    funcs: &FuncRegistry,
    cache: Option<&EvalCache>,
) -> Result<(AssociationSet, u64)> {
    let _span = clio_obs::span("fd.naive");
    let scheme = graph.scheme(db)?;
    let fps: Vec<_> = branches
        .iter()
        .map(|b| cache.map(|c| (c, subgraph_fingerprint(graph, b.mask, c))))
        .collect();
    let mut slots: Vec<Option<Table>> = fps
        .iter()
        .map(|fp| fp.and_then(|(c, fp)| c.get(fp)))
        .collect();
    let missing: Vec<(usize, u64)> = slots
        .iter()
        .enumerate()
        .filter(|(_, slot)| slot.is_none())
        .map(|(i, _)| (i, branches[i].mask))
        .collect();
    let mut children_ns: u64 = 0;
    if !missing.is_empty() {
        let mut order: Vec<usize> = (0..missing.len()).collect();
        order.sort_by_key(|&pos| (Reverse(branches[missing[pos].0].estimate), pos));
        let fresh: Vec<(Table, u64)> = clio_relational::exec::map_slice_prioritized(
            &missing,
            &order,
            "fd.naive.worker",
            |_, &(_, mask)| -> Result<(Table, u64)> {
                let t0 = Instant::now();
                let table = full_associations(db, graph, mask, funcs)?;
                Ok((table, elapsed_ns(t0)))
            },
        )
        .into_iter()
        .collect::<Result<_>>()?;
        metrics::add(Counter::SubgraphsEnumerated, fresh.len() as u64);
        let tracing = clio_obs::trace::trace_enabled();
        for (&(i, mask), (table, cost_ns)) in missing.iter().zip(fresh) {
            children_ns = children_ns.saturating_add(cost_ns);
            if let Some((c, fp)) = fps[i] {
                c.insert_costed(fp, mask_deps(graph, mask), &table, cost_ns);
                if tracing {
                    clio_obs::hist::record("incr.fd.scheduled", cost_ns);
                }
            }
            slots[i] = Some(table);
        }
    }
    let padded: Vec<Table> = slots
        .iter()
        .zip(branches)
        .map(|(table, b)| {
            let table = table.as_ref().expect("all slots filled");
            let filters: Vec<&Expr> = applicable(pushed, pushed_masks, b.mask).collect();
            if filters.is_empty() {
                pad_to(table, &scheme)
            } else {
                pad_to(&filter_rows(table, &filters, funcs)?, &scheme)
            }
        })
        .collect::<Result<_>>()?;
    let refs: Vec<&Table> = padded.iter().collect();
    let table = minimum_union_all(&refs, engine_subsumption())?;
    Ok((AssociationSet::from_table(graph, table), children_ns))
}

/// The pushed filters binding on a branch: those whose aliases all lie
/// inside `mask`.
fn applicable<'a>(
    pushed: &'a [Expr],
    pushed_masks: &'a [u64],
    mask: u64,
) -> impl Iterator<Item = &'a Expr> {
    pushed
        .iter()
        .zip(pushed_masks)
        .filter(move |&(_, &pm)| pm & mask == pm)
        .map(|(f, _)| f)
}

/// The base relations the subgraph `mask` reads (sorted, deduplicated)
/// — the dependency set declared on its `F(J)` entry.
fn mask_deps(graph: &QueryGraph, mask: u64) -> Vec<String> {
    let mut deps: Vec<String> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| n.relation.clone())
        .collect();
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Row-count fallback when no sibling cost history exists: the product
/// of the member relations' sizes (saturating), a proxy for the join
/// work `full_associations` will do on the subgraph.
fn heuristic_cost(db: &Database, graph: &QueryGraph, mask: u64) -> u64 {
    let mut est: u64 = 1;
    for (i, n) in graph.nodes().iter().enumerate() {
        if mask & (1 << i) != 0 {
            let rows = db.relation(&n.relation).map_or(1, |r| r.len() as u64);
            est = est.saturating_mul(rows.max(1));
        }
    }
    est
}

/// The qualifier bitmask of an expression over graph aliases, or `None`
/// if any column is bare or references a non-graph qualifier.
fn alias_mask(graph: &QueryGraph, e: &Expr) -> Option<u64> {
    let mut mask = 0u64;
    for c in e.columns() {
        let q = c.qualifier.as_deref()?;
        let (i, _) = graph
            .nodes()
            .iter()
            .enumerate()
            .find(|(_, n)| n.alias == q)?;
        mask |= 1 << i;
    }
    Some(mask)
}

/// Keep the rows passing every filter, preserving order; the filters
/// must bind against the table's scheme.
fn filter_rows(table: &Table, filters: &[&Expr], funcs: &FuncRegistry) -> Result<Table> {
    let bound: Vec<BoundExpr> = filters
        .iter()
        .map(|f| f.bind(table.scheme()))
        .collect::<Result<_>>()?;
    let mut out = Table::empty(table.scheme().clone());
    'rows: for row in table.rows() {
        for b in &bound {
            if !b.eval_truth(row, funcs)?.passes() {
                continue 'rows;
            }
        }
        out.push(row.clone());
    }
    Ok(out)
}

fn scan_of(graph: &QueryGraph, n: NodeId) -> RelExpr {
    let node = &graph.nodes()[n];
    RelExpr::Scan {
        alias: node.alias.clone(),
        relation: node.relation.clone(),
    }
}

/// The left-deep outer-join chain of the tree plan, in the same
/// connected elimination order (and same edge choice) as
/// [`full_disjunction_outer_join`](crate::full_disjunction::full_disjunction_outer_join).
fn tree_ir(graph: &QueryGraph) -> Result<RelExpr> {
    let order = graph.connected_order(0)?;
    let mut acc = scan_of(graph, order[0]);
    let mut included = 1u64 << order[0];
    for &n in &order[1..] {
        let edge = graph
            .edges_into(n, included)
            .next()
            .expect("tree + connected order guarantee exactly one edge");
        acc = RelExpr::Join {
            left: Box::new(acc),
            right: Box::new(scan_of(graph, n)),
            predicate: edge.predicate.clone(),
            outer: true,
        };
        included |= 1 << n;
    }
    Ok(acc)
}

/// The inner-join chain computing `F(J)` for `mask`, in the same
/// order-from-lowest-bit and edge-conjunction grouping as
/// [`full_associations`].
fn subgraph_ir(graph: &QueryGraph, mask: u64) -> RelExpr {
    let order = graph.subset_order(mask);
    let mut acc = scan_of(graph, order[0]);
    let mut included = 1u64 << order[0];
    for &n in &order[1..] {
        let preds: Vec<Expr> = graph
            .edges_into(n, included)
            .map(|e| e.predicate.clone())
            .collect();
        acc = RelExpr::Join {
            left: Box::new(acc),
            right: Box::new(scan_of(graph, n)),
            predicate: Expr::conjunction(preds),
            outer: false,
        };
        included |= 1 << n;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::ValueCorrespondence;
    use crate::query_graph::Node;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("age", DataType::Int)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), 6i64.into(), "201".into()])
                .row(vec!["002".into(), 9i64.into(), "202".into()])
                .row(vec!["003".into(), 4i64.into(), Value::Null])
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

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    fn target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
                Attribute::new("number", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn tree_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters()
    }

    fn cyclic_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        let ph = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(p, ph, parse_expr("PhoneDir.ID = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(c, ph, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_correspondence(ValueCorrespondence::identity("PhoneDir.number", "number"))
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters()
    }

    /// The definitional mapping query over the reference `D(G)`
    /// (outer joins on trees, the naive minimum union otherwise).
    fn reference(m: &Mapping) -> Table {
        let d = if m.graph.is_tree() {
            crate::full_disjunction::full_disjunction_outer_join(&db(), &m.graph, &funcs())
        } else {
            crate::full_disjunction::full_disjunction_naive(
                &db(),
                &m.graph,
                &funcs(),
                engine_subsumption(),
            )
        }
        .unwrap();
        let eval = m.evaluator(&db(), &funcs()).unwrap();
        let mut out = Table::empty(m.target_scheme());
        for i in 0..d.len() {
            if let Some(row) = eval.target_row_if_passing(d.row(i), &funcs()).unwrap() {
                out.push_distinct(row);
            }
        }
        out
    }

    fn assert_same(m: &Mapping, cache: Option<&EvalCache>) {
        let expected = reference(m);
        let planned = Plan::new(m, &db(), &funcs(), cache)
            .unwrap()
            .evaluate(&db(), &funcs(), cache)
            .unwrap();
        assert_eq!(expected.scheme(), planned.scheme());
        assert_eq!(expected.rows(), planned.rows());
    }

    #[test]
    fn plans_are_well_formed_and_typed() {
        for m in [tree_mapping(), cyclic_mapping()] {
            let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
            plan.root().check().unwrap();
            let scheme = plan.root().scheme(&db()).unwrap();
            assert_eq!(scheme, m.target_scheme());
        }
    }

    #[test]
    fn tree_mappings_take_the_outer_join_plan_unchanged() {
        let m = tree_mapping();
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.algo(), PlanAlgo::OuterJoin);
        assert!(plan.pushed_filters().is_empty());
        assert_eq!(plan.pruned_subgraphs(), 0);
        assert_same(&m, None);
    }

    #[test]
    fn cyclic_mappings_push_strong_filters_and_prune() {
        let m = cyclic_mapping();
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.algo(), PlanAlgo::Naive);
        assert_eq!(plan.pushed_filters().len(), 1);
        // subgraphs not containing Children ({P}, {Ph}, {P,Ph}) are
        // pruned by the strong Children.age filter
        assert_eq!(plan.pruned_subgraphs(), 3);
        assert_same(&m, None);
    }

    #[test]
    fn non_pushable_filters_leave_the_plan_definitional() {
        // coalesce is non-strict: true on a null-filled row can decay
        let mut m = cyclic_mapping();
        m.source_filters = vec![parse_expr("coalesce(Children.age, 99) < 7").unwrap()];
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert!(plan.pushed_filters().is_empty());
        assert_eq!(plan.pruned_subgraphs(), 0);
        assert_same(&m, None);
    }

    #[test]
    fn partially_bound_filters_prune_only_disjoint_branches() {
        // references Children and PhoneDir: {Parents} alone is disjoint
        // with neither... it shares no alias with the filter, so it is
        // pruned; {Children,Parents} binds the filter only partially and
        // must stay unfiltered
        let mut m = cyclic_mapping();
        m.source_filters =
            vec![parse_expr("Children.age < 7 AND PhoneDir.number LIKE '555%'").unwrap()];
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.pushed_filters().len(), 1);
        assert!(plan.pruned_subgraphs() >= 1);
        assert_same(&m, None);
    }

    #[test]
    fn disjunctive_filters_across_aliases_stay_identical() {
        let mut m = cyclic_mapping();
        m.source_filters =
            vec![parse_expr("Children.age < 7 OR PhoneDir.number = '555-0102'").unwrap()];
        assert_same(&m, None);
    }

    #[test]
    fn cached_evaluation_is_identical_and_stored_under_the_mapping_fingerprint() {
        let m = cyclic_mapping();
        let cache = EvalCache::new();
        assert_same(&m, Some(&cache));
        let fp = mapping_fingerprint(&m, &cache);
        assert!(cache.peek(fp), "the result lives under the Q(M) tag");
        let hits_before = cache.stats().hits;
        let again = m.evaluate_cached(&db(), &funcs(), Some(&cache)).unwrap();
        assert_eq!(again.rows(), reference(&m).rows());
        assert!(cache.stats().hits > hits_before, "repeat must hit Q(M)");
        // warm branches are annotated as such on a rebuild
        let rebuilt = Plan::new(&m, &db(), &funcs(), Some(&cache)).unwrap();
        assert!(rebuilt.branches().iter().all(|b| b.warm));
    }

    #[test]
    fn warm_hits_build_no_plan() {
        let _guard = crate::obs_testutil::lock();
        let m = cyclic_mapping();
        let cache = EvalCache::new();
        m.evaluate_cached(&db(), &funcs(), Some(&cache)).unwrap();
        clio_obs::set_trace_enabled(true);
        {
            // a root span tells this thread's spans apart from those of
            // concurrently running tests
            let _root = clio_obs::span("test.warm_hit");
            m.evaluate_cached(&db(), &funcs(), Some(&cache)).unwrap();
        }
        clio_obs::set_trace_enabled(false);
        let spans = clio_obs::take_spans();
        clio_obs::clear_events();
        let root = spans.iter().find(|s| s.name == "test.warm_hit").unwrap();
        let eval = spans
            .iter()
            .find(|s| s.name == "mapping.evaluate" && s.parent == Some(root.id))
            .unwrap_or_else(|| panic!("{spans:?}"));
        assert!(
            !spans.iter().any(|s| s.parent == Some(eval.id)),
            "a warm hit runs no plan stage: {spans:?}"
        );
    }
}
