//! Tuple subsumption and subsumption removal (paper Def 3.8).
//!
//! A tuple `t1` **subsumes** `t2` (same scheme) when `t1[A] = t2[A]` for
//! every attribute `A` on which `t2` is non-null; the subsumption is
//! **strict** when `t1 ≠ t2`. The minimum union operator removes strictly
//! subsumed tuples — they are redundant, repeating information carried by a
//! more complete tuple (paper Sec 3.2).
//!
//! Two algorithms are provided:
//!
//! * [`remove_subsumed_naive`] — the definitional `O(n²)` pairwise check,
//!   kept as the reference implementation;
//! * [`remove_subsumed_partitioned`] — the engine's algorithm: partitions
//!   tuples by their non-null mask; `t1` can only strictly subsume `t2`
//!   when `mask(t2) ⊊ mask(t1)`, so only mask pairs in strict-subset
//!   relation are probed, via a hash index on the subsumee-mask
//!   projection. The per-mask probe passes are independent, so on large
//!   tables they run on the [`crate::exec`] worker pool
//!   (`subsumption.worker` spans).
//!
//! Benchmark **B2** (`cargo bench -p clio-bench --bench subsumption`)
//! compares them; a property test asserts they agree.

use std::collections::HashMap;

use clio_obs::metrics::{self, Counter};

use crate::bitset::Bitset;
use crate::exec;
use crate::table::Table;
use crate::value::Value;

/// Algorithm selector for subsumption removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsumptionAlgo {
    /// Definitional `O(n²)` pairwise comparison (the reference).
    Naive,
    /// Null-mask partitioning + hash probing (the engine's algorithm).
    Partitioned,
}

/// Below this row count the partitioned algorithm stays on the calling
/// thread — fan-out overhead would exceed the probe work.
const PARTITIONED_PARALLEL_MIN_ROWS: usize = 256;

/// Does `t1` subsume `t2`? Both rows must have the same arity.
#[must_use]
pub fn subsumes(t1: &[Value], t2: &[Value]) -> bool {
    debug_assert_eq!(t1.len(), t2.len());
    t1.iter().zip(t2).all(|(a, b)| b.is_null() || a == b)
}

/// Does `t1` strictly subsume `t2`?
#[must_use]
pub fn strictly_subsumes(t1: &[Value], t2: &[Value]) -> bool {
    t1 != t2 && subsumes(t1, t2)
}

/// Remove strictly subsumed rows (and exact duplicates) from `table`,
/// preserving first-occurrence order of the survivors.
pub fn remove_subsumed(table: &mut Table, algo: SubsumptionAlgo) {
    match algo {
        SubsumptionAlgo::Naive => remove_subsumed_naive(table),
        SubsumptionAlgo::Partitioned => remove_subsumed_partitioned(table),
    }
}

fn null_mask(row: &[Value], arity: usize) -> Bitset {
    let mut mask = Bitset::new(arity);
    for (k, v) in row.iter().enumerate() {
        if !v.is_null() {
            mask.set(k);
        }
    }
    mask
}

/// Reference implementation: pairwise `O(n²)` scan.
pub fn remove_subsumed_naive(table: &mut Table) {
    let _span = clio_obs::span("ops.remove_subsumed");
    table.dedup();
    let rows = table.rows();
    let n = rows.len();
    let mut keep = vec![true; n];
    let mut comparisons: u64 = 0;
    for i in 0..n {
        for j in 0..n {
            if i != j && keep[i] {
                comparisons += 1;
                if strictly_subsumes(&rows[j], &rows[i]) {
                    keep[i] = false;
                    break;
                }
            }
        }
    }
    let removed = keep.iter().filter(|k| !**k).count() as u64;
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    metrics::add(Counter::TuplesSubsumed, removed);
    retain_by_mask(table, &keep);
}

/// Optimized implementation: group rows by non-null mask; for each strict
/// mask-subset pair `(m_small, m_big)`, probe a hash index of the big
/// group's rows projected onto `m_small`'s positions.
///
/// The per-mask passes only read the shared row/group structures and
/// only ever remove rows of their own partition, so they are
/// independent; tables of at least `PARTITIONED_PARALLEL_MIN_ROWS`
/// rows run them on the [`exec`] pool (`subsumption.worker` spans). The
/// survivors — and the flushed counters, which sum the same per-mask
/// totals in any schedule — are identical to the serial pass.
pub fn remove_subsumed_partitioned(table: &mut Table) {
    let _span = clio_obs::span("ops.remove_subsumed");
    table.dedup();
    let arity = table.scheme().arity();
    let rows = table.rows();
    let n = rows.len();

    // group row indexes by non-null mask
    let mut groups: HashMap<Bitset, Vec<usize>> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        groups.entry(null_mask(row, arity)).or_default().push(i);
    }

    if groups.len() <= 1 {
        // one partition ⇒ no strict mask-subset pairs ⇒ nothing beyond
        // the dedup above can be removed
        metrics::add(Counter::TuplesSubsumed, 0);
        return;
    }

    let masks: Vec<&Bitset> = groups.keys().collect();

    // One pass per subsumee mask: probe a hash index of the projections
    // of every strictly-larger group, returning this partition's doomed
    // row indexes plus its work count (index insertions + probes — the
    // role the pairwise tests play in the naive algorithm).
    let probe_mask = |_i: usize, small: &&Bitset| -> (Vec<usize>, u64) {
        let mut comparisons: u64 = 0;
        let positions: Vec<usize> = small.iter_ones().collect();
        let mut projections: HashMap<Vec<&Value>, ()> = HashMap::new();
        for big in &masks {
            if small.is_strict_subset(big) {
                for &ri in &groups[*big] {
                    let proj: Vec<&Value> = positions.iter().map(|&p| &rows[ri][p]).collect();
                    comparisons += 1;
                    projections.insert(proj, ());
                }
            }
        }
        let mut doomed = Vec::new();
        if !projections.is_empty() {
            for &ri in &groups[*small] {
                let proj: Vec<&Value> = positions.iter().map(|&p| &rows[ri][p]).collect();
                comparisons += 1;
                if projections.contains_key(&proj) {
                    doomed.push(ri);
                }
            }
        }
        (doomed, comparisons)
    };

    let results: Vec<(Vec<usize>, u64)> = if n >= PARTITIONED_PARALLEL_MIN_ROWS {
        exec::map_slice(&masks, "subsumption.worker", probe_mask)
    } else {
        masks
            .iter()
            .enumerate()
            .map(|(i, m)| probe_mask(i, m))
            .collect()
    };

    let mut keep = vec![true; n];
    let mut comparisons: u64 = 0;
    let mut removed: u64 = 0;
    for (doomed, work) in results {
        comparisons += work;
        removed += doomed.len() as u64;
        for ri in doomed {
            keep[ri] = false;
        }
    }
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    metrics::add(Counter::TuplesSubsumed, removed);
    retain_by_mask(table, &keep);
}

fn retain_by_mask(table: &mut Table, keep: &[bool]) {
    let mut i = 0;
    table.rows_mut().retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Scheme};
    use crate::value::DataType;

    fn scheme(n: usize) -> Scheme {
        Scheme::new(
            (0..n)
                .map(|i| Column::new("R", format!("a{i}"), DataType::Str))
                .collect(),
        )
    }

    fn v(s: &str) -> Value {
        if s == "-" {
            Value::Null
        } else {
            Value::str(s)
        }
    }

    fn table(rows: &[&[&str]]) -> Table {
        let arity = rows.first().map_or(0, |r| r.len());
        Table::new(
            scheme(arity),
            rows.iter()
                .map(|r| r.iter().map(|s| v(s)).collect())
                .collect(),
        )
    }

    #[test]
    fn subsumes_basic() {
        assert!(subsumes(&[v("a"), v("b")], &[v("a"), v("-")]));
        assert!(!subsumes(&[v("a"), v("b")], &[v("x"), v("-")]));
        assert!(subsumes(&[v("a"), v("-")], &[v("a"), v("-")]));
        assert!(!strictly_subsumes(&[v("a"), v("-")], &[v("a"), v("-")]));
        assert!(strictly_subsumes(&[v("a"), v("b")], &[v("a"), v("-")]));
        // subsumption is one-directional
        assert!(!subsumes(&[v("a"), v("-")], &[v("a"), v("b")]));
    }

    #[test]
    fn paper_figure7_u_subsumed_by_v() {
        // u = Children+Parents association padded with nulls on PhoneDir,
        // v = the full association; v strictly subsumes u.
        let u = [v("002"), v("Maya"), v("202"), v("-"), v("-")];
        let w = [v("002"), v("Maya"), v("202"), v("202"), v("555")];
        assert!(strictly_subsumes(&w, &u));
    }

    #[test]
    fn removal_keeps_maximal_rows() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[
                &["a", "b", "-"],
                &["a", "b", "c"],
                &["x", "-", "-"],
                &["-", "-", "z"],
            ]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 3, "{algo:?}");
            assert!(t.rows().iter().all(|r| r[0] != v("a") || !r[2].is_null()));
        }
    }

    #[test]
    fn exact_duplicates_are_collapsed() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[&["a", "b"], &["a", "b"], &["c", "-"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 2, "{algo:?}");
        }
    }

    #[test]
    fn incomparable_rows_all_survive() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[&["a", "-"], &["-", "b"], &["c", "-"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 3, "{algo:?}");
        }
    }

    #[test]
    fn equal_masks_different_values_survive() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[&["a", "-"], &["b", "-"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 2, "{algo:?}");
        }
    }

    #[test]
    fn chains_of_subsumption_leave_only_top() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[&["a", "-", "-"], &["a", "b", "-"], &["a", "b", "c"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 1, "{algo:?}");
            assert_eq!(t.rows()[0][2], v("c"));
        }
    }

    #[test]
    fn order_of_survivors_is_preserved() {
        let mut t = table(&[&["z", "-"], &["a", "b"], &["z", "y"]]);
        remove_subsumed(&mut t, SubsumptionAlgo::Partitioned);
        assert_eq!(t.rows()[0][0], v("a"));
        assert_eq!(t.rows()[1][0], v("z"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_table_is_fine() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[]);
            remove_subsumed(&mut t, algo);
            assert!(t.is_empty());
        }
    }

    /// Deterministic pseudo-random nullable table (xorshift, no deps):
    /// small domain so subsumption pairs actually occur.
    fn random_table(rows: usize, arity: usize, seed: u64) -> Table {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                (0..arity)
                    .map(|_| match next() % 5 {
                        0 => Value::Null,
                        v => Value::Int(v as i64),
                    })
                    .collect()
            })
            .collect();
        Table::new(scheme(arity), rows)
    }

    #[test]
    fn parallel_partitioned_is_byte_identical_to_serial() {
        // 1200 rows exceeds PARTITIONED_PARALLEL_MIN_ROWS, so the probe
        // passes fan out; survivors must match the serial pass exactly,
        // row order included.
        let base = random_table(1200, 6, 0xC110);
        let mut serial = base.clone();
        let mut parallel = base.clone();
        crate::exec::with_threads(1, || remove_subsumed_partitioned(&mut serial));
        crate::exec::with_threads(4, || remove_subsumed_partitioned(&mut parallel));
        assert!(serial.len() < base.len(), "workload must exercise removal");
        assert_eq!(serial.rows(), parallel.rows());
    }

    #[test]
    fn partitioned_agrees_with_reference_on_random_tables() {
        for seed in [3u64, 17, 99] {
            let base = random_table(700, 5, seed);
            let mut reference = base.clone();
            let mut partitioned = base.clone();
            remove_subsumed_naive(&mut reference);
            remove_subsumed(&mut partitioned, SubsumptionAlgo::Partitioned);
            assert!(
                reference.len() < base.len(),
                "workload must exercise removal"
            );
            assert_eq!(reference.rows(), partitioned.rows(), "seed {seed}");
        }
    }
}
