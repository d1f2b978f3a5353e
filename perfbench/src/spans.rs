//! In-memory host-time spans recorded by the benchmark around its calls
//! into each layer of the program.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `manager.decide` or `retime.planner`.
    pub name: &'static str,
    /// The decision or run this span belongs to (inherited by children).
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder: a stack of open spans over a flat list of finished
/// ones. Single-threaded by construction; share it as [`SharedTracer`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A tracer shared between the benchmark and its timing wrappers.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A new tracer behind a shared handle.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new()))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. `id` of `None`
    /// inherits the parent's id (0 at the root).
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) -> usize {
        let parent = self.open.last().copied();
        let id = id.unwrap_or_else(|| parent.map_or(0, |p| self.spans[p].id));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval its direct
    /// children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let me = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = me.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of spans named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Summed self time of spans named `name`, milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .sum()
    }

    /// The spans as a JSON array of
    /// `{"name", "id", "parent", "start_ns", "end_ns", "self_ns"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}",
                s.name,
                s.id,
                parent,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Runs `f` inside a span named `name` when `tracer` is present, and
/// returns its result with its wall time in milliseconds either way.
pub fn timed<T>(
    tracer: Option<&SharedTracer>,
    name: &'static str,
    id: Option<u64>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let idx = tracer.map(|t| t.borrow_mut().begin(name, id));
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(i)) = (tracer, idx) {
        t.borrow_mut().end(i);
    }
    (out, ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn children_inherit_ids_and_nest() {
        let mut t = Tracer::new();
        let a = t.begin("run", Some(7));
        let b = t.begin("child", None);
        t.end(b);
        t.end(a);
        let c = t.begin("other", None);
        t.end(c);
        assert_eq!(t.spans()[b].parent, Some(a));
        assert_eq!(t.spans()[b].id, 7);
        assert_eq!(t.spans()[c].parent, None);
        assert_eq!(t.spans()[c].id, 0);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new();
        let a = t.begin("parent", Some(1));
        spin(200);
        for _ in 0..3 {
            let k = t.begin("kid", None);
            spin(300);
            t.end(k);
        }
        t.end(a);
        let kids: u64 = t
            .spans()
            .iter()
            .filter(|s| s.name == "kid")
            .map(Span::dur_ns)
            .sum();
        assert_eq!(t.self_ns(a), t.spans()[a].dur_ns() - kids);
        assert!(t.self_ns(a) >= 200_000);
        assert_eq!(t.count("kid"), 3);
        assert!((t.self_ms("parent") + t.total_ms("kid") - t.total_ms("parent")).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.begin("a", None);
        let _b = t.begin("b", None);
        t.end(a);
    }

    #[test]
    fn json_lists_every_span() {
        let tr = Tracer::shared();
        let ((), _) = timed(Some(&tr), "x", Some(3), || {
            let ((), _) = timed(Some(&tr), "y", None, || ());
        });
        let json = tr.borrow().to_json();
        assert!(json.contains("\"name\":\"x\",\"id\":3,\"parent\":null"));
        assert!(json.contains("\"name\":\"y\",\"id\":3,\"parent\":0"));
    }
}
