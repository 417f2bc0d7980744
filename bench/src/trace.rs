//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here is compiled into the program under test: the
//! spans come from the decorators in `seams` and from timing direct
//! calls, and are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is everything before the last dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a rep's root span.
    pub parent: Option<usize>,
    /// The timed rep this span belongs to (spans of one rep share it).
    pub rep: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the last dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

#[derive(Debug)]
struct TracerState {
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<usize>,
    rep: u32,
}

/// Records spans through a shared reference, so the `&self` methods of a
/// decorated trait (`FleetQuery`) can record as well as the `&mut self`
/// ones. Single-threaded by construction: every workload pins
/// `threads = 1`.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: RefCell<TracerState>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: RefCell::new(TracerState {
                spans: Vec::new(),
                open: Vec::new(),
                rep: 0,
            }),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the rep number stamped on spans opened from now on.
    pub fn set_rep(&self, rep: u32) {
        self.state.borrow_mut().rep = rep;
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open at the time.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut state = self.state.borrow_mut();
            let index = state.spans.len();
            let parent = state.open.last().copied();
            let rep = state.rep;
            state.open.push(index);
            state.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                rep,
            });
            index
        };
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping lands in the parent's self time.
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        state.spans[index].start_ns = start_ns;
        state.spans[index].end_ns = end_ns;
        let closed = state.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
        value
    }

    /// Records a child of the open span covering `busy_ns` of the time
    /// since `since_ns`: the sum of many calls too short and too frequent
    /// to keep one span each (a scheduler's poll rounds within a tick).
    pub fn aggregate(&self, name: &'static str, since_ns: u64, busy_ns: u64) {
        let mut state = self.state.borrow_mut();
        let parent = state.open.last().copied();
        let rep = state.rep;
        state.spans.push(Span {
            name,
            start_ns: since_ns,
            end_ns: since_ns + busy_ns,
            parent,
            rep,
        });
    }

    /// Nanoseconds since the tracer was created, for `aggregate`.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Ends recording and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.state.into_inner().spans
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time per layer in nanoseconds, summed over every span.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *layers.entry(span.layer()).or_insert(0) += own;
    }
    layers
}

/// Durations in milliseconds of every span named `name`, in start order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64 / 1e6)
        .collect()
}

/// Appends `text` to `out` as a JSON string literal.
pub fn json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the spans of one traced run as a JSON document.
pub fn spans_to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"workload\": ");
    json_string(&mut out, workload);
    let _ = write!(out, ", \"seed\": {seed}, \"spans\": [");
    for (i, span) in spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"name\": ");
        json_string(&mut out, span.name);
        let _ = write!(
            out,
            ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
            span.start_ns, span.end_ns
        );
        match span.parent {
            Some(parent) => {
                let _ = write!(out, "{parent}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"rep\": {}}}", span.rep);
    }
    out.push_str("\n]}\n");
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
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100]
        //   sim.run_into [0,60]
        //     store.ingest.batch [10,20], [30,45]
        //   core.from_query [60,90]
        //     store.query.clients [65,75]
        let spans = vec![
            span("bench.rep", 0, 100, None),
            span("sim.run_into", 0, 60, Some(0)),
            span("store.ingest.batch", 10, 20, Some(1)),
            span("store.ingest.batch", 30, 45, Some(1)),
            span("core.from_query", 60, 90, Some(0)),
            span("store.query.clients", 65, 75, Some(4)),
        ];
        assert_eq!(self_times(&spans), vec![10, 35, 10, 15, 20, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 10);
        assert_eq!(layers["sim"], 35);
        assert_eq!(layers["store.ingest"], 25);
        assert_eq!(layers["core"], 20);
        assert_eq!(layers["store.query"], 10);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(layers.values().sum::<u64>(), 100);
        assert_eq!(durations_ms(&spans, "core.from_query"), vec![30e-6]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let tracer = Tracer::default();
        tracer.set_rep(3);
        let answer = tracer.span("bench.rep", || {
            tracer.span("sim.run_into", || {
                tracer.span("store.ingest.batch", || 1);
            });
            let since = tracer.clock_ns();
            tracer.aggregate("telemetry.transport.poll_round", since, 0);
            tracer.span("core.render", || 42)
        });
        assert_eq!(answer, 42);
        let spans = tracer.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            shape,
            vec![
                ("bench.rep", None, 3),
                ("sim.run_into", Some(0), 3),
                ("store.ingest.batch", Some(1), 3),
                ("telemetry.transport.poll_round", Some(0), 3),
                ("core.render", Some(0), 3),
            ]
        );
        for s in &spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert_eq!(spans[1].layer(), "sim");
        assert_eq!(spans[3].layer(), "telemetry.transport");
    }

    #[test]
    fn json_strings_escape_quotes_controls_and_backslashes() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd\te\u{1}f/é");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f/é\"");
    }

    #[test]
    fn span_document_lists_every_field() {
        let spans = vec![span("bench.rep", 5, 9, None), span("sim.x", 6, 7, Some(0))];
        let json = spans_to_json("campaign_report", 7, &spans);
        assert!(json.starts_with("{\"workload\": \"campaign_report\", \"seed\": 7, \"spans\": ["));
        assert!(json.contains(
            "{\"name\": \"bench.rep\", \"start_ns\": 5, \"end_ns\": 9, \"parent\": null, \"rep\": 0}"
        ));
        assert!(json.contains(
            "{\"name\": \"sim.x\", \"start_ns\": 6, \"end_ns\": 7, \"parent\": 0, \"rep\": 0}"
        ));
        assert!(json.ends_with("\n]}\n"));
    }
}
