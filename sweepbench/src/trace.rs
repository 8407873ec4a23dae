//! Span recorder for the traced run. Spans are taken in the benchmark's
//! own code around each call it makes into a layer (name, start, end,
//! parent span, op id), kept in memory, summed per op into layer totals,
//! and written out as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use unimem::exec::RunReport;
use unimem_sim::Json;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (module) the call entered: `exec`, `xmem`, `tenancy`,
    /// `workloads`, `cache`, `report`, or `op` for the op's root span.
    pub layer: &'static str,
    /// The call within the layer: a policy name for `exec`, `train`,
    /// `corun`, `select`, `instantiate`, `read`, `json`.
    pub detail: &'static str,
    /// The op this span belongs to.
    pub op: usize,
    /// Index of the parent span; `None` for an op's root span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated rank-iterations the call executed (`exec` spans only).
    pub rank_iters: u64,
    /// The call ran a clustered machine room (`run_workload_clustered`).
    pub clustered: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-op totals of one (layer, call) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub calls: u64,
    pub clustered_calls: u64,
    pub ns: u64,
    pub rank_iters: u64,
}

/// One traced op, summed: its wall time and every child layer's totals.
#[derive(Debug, Clone, Default)]
pub struct OpTotals {
    pub wall_ns: u64,
    pub children_ns: u64,
    pub layers: BTreeMap<(&'static str, &'static str), LayerTotal>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    ops: usize,
    open_op: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
            open_op: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run one op under a root span; calls made through [`Tracer::span`]
    /// inside `f` become its children.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        assert!(self.open_op.is_none(), "ops do not nest");
        let root = self.spans.len();
        self.spans.push(Span {
            layer: "op",
            detail: "sweep",
            op: self.ops,
            parent: None,
            start_ns: self.now_ns(),
            end_ns: 0,
            rank_iters: 0,
            clustered: false,
        });
        self.open_op = Some(root);
        let out = f(self);
        self.spans[root].end_ns = self.now_ns();
        self.open_op = None;
        self.ops += 1;
        out
    }

    /// Time one call into a layer as a child of the open op.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let parent = self.open_op.expect("spans are taken inside an op");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            detail,
            op: self.ops,
            parent: Some(parent),
            start_ns,
            end_ns,
            rank_iters: 0,
            clustered: false,
        });
        out
    }

    /// [`Tracer::span`] around one `exec` entry-point call, recording the
    /// simulated rank-iterations it executed and whether it ran a
    /// clustered room.
    pub fn exec(
        &mut self,
        policy: &'static str,
        clustered: bool,
        f: impl FnOnce() -> RunReport,
    ) -> RunReport {
        let report = self.span("exec", policy, f);
        let last = self.spans.last_mut().expect("span just recorded");
        last.rank_iters = report.per_rank.iter().map(|s| s.iterations).sum();
        last.clustered = clustered;
        report
    }

    /// Sum every finished op's spans.
    pub fn totals(&self) -> Vec<OpTotals> {
        let mut ops = vec![OpTotals::default(); self.ops];
        for s in &self.spans {
            let t = &mut ops[s.op];
            if s.parent.is_none() {
                t.wall_ns = s.ns();
                continue;
            }
            t.children_ns += s.ns();
            let l = t.layers.entry((s.layer, s.detail)).or_default();
            l.calls += 1;
            l.clustered_calls += u64::from(s.clustered);
            l.ns += s.ns();
            l.rank_iters += s.rank_iters;
        }
        ops
    }

    /// Write every span as Chrome trace-event JSON (opens in Perfetto or
    /// the Firefox Profiler).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Json::obj();
                args.push("op", s.op).push("id", id);
                if let Some(p) = s.parent {
                    args.push("parent", p);
                }
                if s.rank_iters > 0 {
                    args.push("rank_iters", s.rank_iters);
                }
                if s.clustered {
                    args.push("clustered", true);
                }
                let mut e = Json::obj();
                e.push("name", format!("{}.{}", s.layer, s.detail))
                    .push("cat", s.layer)
                    .push("ph", "X")
                    .push("ts", s.start_ns as f64 / 1e3)
                    .push("dur", s.ns() as f64 / 1e3)
                    .push("pid", 1u64)
                    .push("tid", 1u64)
                    .push("args", args);
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.push("traceEvents", events)
            .push("displayTimeUnit", "ms");
        std::fs::write(path, doc.to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_into_their_op() {
        let mut tr = Tracer::default();
        for _ in 0..2 {
            tr.op(|tr| {
                tr.span("workloads", "select", || ());
                tr.span("report", "json", || ());
                tr.span("report", "json", || ());
            });
        }
        let totals = tr.totals();
        assert_eq!(totals.len(), 2);
        for t in &totals {
            assert_eq!(t.layers[&("report", "json")].calls, 2);
            assert_eq!(t.layers[&("workloads", "select")].calls, 1);
            assert!(t.children_ns <= t.wall_ns);
        }
    }
}
