//! In-memory spans recorded around each call into a layer.
//!
//! A span is (name, start, end, parent, unit): `unit` is the iteration
//! or request id the span belongs to. Spans stay in memory during the
//! run and are written out as JSON lines at exit. A layer's *self time*
//! is its span's duration minus the part of that interval its direct
//! children cover.

use flo_json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `sim.simulate`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Iteration or request id.
    pub unit: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while switched on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing relative to `epoch`, initially off.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (between spans only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for work unit `unit`. Spans
    /// opened inside `f` (through the tracer it receives) become its
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in ns: its duration minus the union of its
/// direct children's intervals, clipped to its own interval. Children
/// may nest, touch or (across threads) overlap; each covered
/// nanosecond is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a span set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// (name, calls, self ns), in first-seen order.
    pub layers: Vec<(&'static str, u64, u64)>,
    /// Summed duration of the root spans (one per work unit).
    pub root_ns: u64,
    /// Summed self time of the root spans: time inside a work unit
    /// that no layer span covers.
    pub root_self_ns: u64,
}

impl LayerTotals {
    /// Summarize `spans`. Roots are the spans without a parent.
    pub fn of(spans: &[Span]) -> LayerTotals {
        let selfs = self_times(spans);
        let mut out = LayerTotals::default();
        for (s, &own) in spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                out.root_ns += s.dur_ns();
                out.root_self_ns += own;
                continue;
            }
            match out.layers.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, calls, ns)) => {
                    *calls += 1;
                    *ns += own;
                }
                None => out.layers.push((s.name, 1, own)),
            }
        }
        out
    }

    /// Self ms and call count of `name` (zeros when it never ran).
    pub fn layer(&self, name: &str) -> (f64, u64) {
        self.layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0.0, 0), |&(_, calls, ns)| (ns as f64 / 1e6, calls))
    }

    /// Share of the work units' wall time no layer span explains.
    pub fn unexplained_ratio(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.root_self_ns as f64 / self.root_ns as f64
    }
}

/// The spans as JSON lines (`thread` tags which tracer recorded them).
pub fn to_jsonl(thread: usize, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut j = Json::obj()
            .set("thread", thread as u64)
            .set("name", s.name)
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns)
            .set("unit", s.unit);
        j = match s.parent {
            Some(p) => j.set("parent", p as u64),
            None => j.set("parent", Json::Null),
        };
        out.push_str(&j.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn adjacent_children_are_both_subtracted() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn nested_grandchildren_count_against_their_parent_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 90, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("a2", 30, 50, Some(1)),
            span("a2x", 35, 45, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 10, 10, 10]);
        let t = LayerTotals::of(&spans);
        assert_eq!(t.root_ns, 100);
        assert_eq!(t.root_self_ns, 20);
        assert_eq!(t.layer("a"), (50e-6, 1));
        assert!((t.unexplained_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 90, 130, Some(0)),
            span("y", 120, 150, Some(0)),
            span("z", 190, 260, Some(0)),
        ];
        // Covered: [100,150) and [190,200) = 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_links_parents_and_is_inert_when_off() {
        let mut t = Tracer::new(Instant::now());
        t.span("off", 0, |_| ());
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.span("root", 7, |t| {
            t.span("child", 7, |t| t.span("leaf", 7, |_| ()));
            t.span("sibling", 7, |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("child", Some(0)),
                ("leaf", Some(1)),
                ("sibling", Some(0))
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.unit == 7));
        let totals = LayerTotals::of(t.spans());
        assert_eq!(totals.layer("leaf").1, 1);
        assert_eq!(totals.layer("missing"), (0.0, 0));
    }
}
