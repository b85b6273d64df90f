//! The traced run's span writer: benchmark-side spans around calls into
//! the program's public functions, kept in memory and written out when
//! the run ends.
//!
//! Each span records a name, start, end, parent span, and the id of the
//! query or session it belongs to. A span's self time is its duration
//! minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

/// An in-memory span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    unit: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The query or session id later spans are tagged with.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Move another tracer's spans into this one (same epoch assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name, the per-unit sums of self time (ms), one entry per
    /// unit that recorded the name. With `inclusive`, whole durations
    /// are summed instead of self times.
    pub fn per_unit_ms(&self, inclusive: bool) -> BTreeMap<String, Vec<f64>> {
        let selfs = self.self_times_ns();
        let mut sums: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let ns = if inclusive {
                s.end_ns - s.start_ns
            } else {
                own
            };
            *sums
                .entry(s.name.clone())
                .or_default()
                .entry(s.unit)
                .or_default() += ns as f64 / 1e6;
        }
        sums.into_iter()
            .map(|(name, units)| (name, units.into_values().collect()))
            .collect()
    }

    /// Write every span as one JSON line with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"unit\": {}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            SpanRec {
                name: "q".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                unit: 7,
            },
            SpanRec {
                name: "a".into(),
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                unit: 7,
            },
            SpanRec {
                name: "b".into(),
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                unit: 7,
            },
        ];
        assert_eq!(t.self_times_ns(), vec![50, 30, 30]);
        let per = t.per_unit_ms(true);
        assert_eq!(per["q"], vec![100.0 / 1e6]);
    }
}
