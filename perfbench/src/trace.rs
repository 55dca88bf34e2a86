//! In-memory spans for the traced run: name, start, end, parent and
//! request id per call into a layer. Nothing is written until the run
//! ends. A span's self time is its duration minus the time its child
//! spans cover (children of one thread nest, so that is their sum).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. While disabled, [`Tracer::span`]
/// only calls through: the untraced requests the overhead is measured
/// against.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(true),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Run `f` as request `id`: a root span every span inside inherits
    /// the id of.
    pub fn request<R>(&self, id: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.request.set(id);
        self.span(name, f)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        by.entry(s.name).or_default().push(own);
    }
    by
}

/// The spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

/// Per-layer rollup: span count, total and self time per name, as JSON.
pub fn rollup_json(spans: &[Span]) -> String {
    let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *total.entry(s.name).or_default() += s.ns();
    }
    let rows: Vec<String> = self_times_by_name(spans)
        .iter()
        .map(|(name, own)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_us\":{:.1},\"self_us\":{:.1}}}",
                own.len(),
                total[name] as f64 / 1e3,
                own.iter().sum::<u64>() as f64 / 1e3
            )
        })
        .collect();
    format!("{{{}}}\n", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span { name: "req", start_ns: 0, end_ns: 100, parent: None, request: 1 },
            Span { name: "a", start_ns: 10, end_ns: 40, parent: Some(0), request: 1 },
            Span { name: "b", start_ns: 50, end_ns: 90, parent: Some(0), request: 1 },
            Span { name: "c", start_ns: 60, end_ns: 70, parent: Some(2), request: 1 },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn nested_spans_record_parents_and_request_ids() {
        let t = Tracer::new();
        t.request(7, "req", || t.span("inner", || t.span("leaf", || ())));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        t.set_enabled(false);
        assert_eq!(t.span("x", || 5), 5);
        assert_eq!(t.spans().len(), 3);
    }
}
