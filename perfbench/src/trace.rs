//! The benchmark's own spans: one root span per op and a child span around
//! each call into a layer's public functions. Spans stay in memory and are
//! written out when the run ends; a layer's self time is its span's
//! duration minus the time its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of every op; its self time is the harness's own glue.
pub const ROOT: &str = "harness";

struct Rec {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// An in-memory span recorder. When off, [`Tracer::span`] only calls its
/// closure.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    op: Cell<u64>,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Rec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: Cell::new(false),
            epoch: Instant::now(),
            op: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Sets the op id that following spans are filed under.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Rec {
                name,
                op: self.op.get(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                child_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_ns = end;
        let dur = end - spans[idx].start_ns;
        if let Some(parent) = spans[idx].parent {
            spans[parent].child_ns += dur;
        }
        out
    }

    /// Forgets every recorded span.
    pub fn clear(&self) {
        self.spans.borrow_mut().clear();
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for rec in self.spans.borrow().iter() {
            let own = (rec.end_ns - rec.start_ns).saturating_sub(rec.child_ns);
            *out.entry(rec.name).or_insert(0) += own;
        }
        out
    }

    /// Total duration of the root spans, in nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|r| r.parent.is_none() && r.name == ROOT)
            .map(|r| r.end_ns - r.start_ns)
            .sum()
    }

    /// The spans as JSON lines: `{"op":…,"id":…,"parent":…,"name":…,"start_ns":…,"end_ns":…}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, rec) in self.spans.borrow().iter().enumerate() {
            let parent = rec.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"op":{},"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                rec.op, rec.name, rec.start_ns, rec.end_ns
            );
        }
        out
    }
}
