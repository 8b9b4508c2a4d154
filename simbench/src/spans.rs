//! In-memory span recorder for the traced pass.
//!
//! A span is (name, start, end, parent, cell). Spans are kept in a `Vec`
//! and written out once the pass ends; self time is a span's duration
//! minus the time its direct children cover. Predictor methods are not
//! spans: their time arrives as a per-cell [`PredLedger`] attached to the
//! enclosing simulation span and is subtracted from that span's self time.

use crate::timed::PredLedger;
use phast_experiments::artifact::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Layer-qualified name, e.g. `ooo.simulate`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The grid cell this span belongs to.
    pub cell: Option<usize>,
    /// Predictor time spent inside this span (simulation spans only).
    pub pred_ns: u64,
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            cell: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the cell id later spans carry (`None` outside any cell).
    pub fn set_cell(&mut self, cell: Option<usize>) {
        self.cell = cell;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell: self.cell,
            pred_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Attributes predictor time to the most recently closed span named
    /// `name` (the simulation span the predictor ran under).
    pub fn attach_pred(&mut self, name: &'static str, ledger: &PredLedger) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            s.pred_ns += ledger.total_ns();
        }
    }

    /// Per-name totals: (calls, total seconds, self seconds). Self time
    /// excludes direct children and attached predictor time.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i] + s.pred_ns);
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += own as f64 / 1e9;
        }
        out
    }

    /// Every span as a JSON-lines document, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(JsonValue::Null, |x| JsonValue::UInt(x as u64));
            let line = JsonValue::obj(vec![
                ("id", JsonValue::UInt(i as u64)),
                ("name", JsonValue::Str(s.name.to_string())),
                ("start_ns", JsonValue::UInt(s.start_ns)),
                ("end_ns", JsonValue::UInt(s.end_ns)),
                ("parent", opt(s.parent)),
                ("cell", opt(s.cell)),
                ("pred_ns", JsonValue::UInt(s.pred_ns)),
            ]);
            out.push_str(&line.render_compact());
            out.push('\n');
        }
        out
    }
}
