//! In-memory span recorder for the traced run, with a per-layer self-time
//! ledger and a Chrome trace-event export (opens in Perfetto).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A disabled tracer never reads the clock, so the untraced runs pay
//! nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

use lbm_bench::json::Json;

/// Which Perfetto lane (trace-event `tid`) a span is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// The benchmark's driving thread.
    Main,
    /// One solver rank.
    Rank(usize),
    /// One ensemble worker slot.
    Slot(usize),
}

impl Lane {
    fn tid(self) -> i64 {
        match self {
            Lane::Main => 0,
            Lane::Rank(r) => 1 + r as i64,
            Lane::Slot(s) => 1000 + s as i64,
        }
    }

    fn label(self) -> String {
        match self {
            Lane::Main => "bench".into(),
            Lane::Rank(r) => format!("rank {r}"),
            Lane::Slot(s) => format!("slot {s}"),
        }
    }
}

/// Handle of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    layer: &'static str,
    lane: Lane,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    /// Fraction of the parent's interval this span stands for: 1 for a
    /// sequential child, 1/n for one of n spans that ran side by side on
    /// parallel lanes (ranks, slots), so parallel work is not counted n
    /// times in the ledger.
    share: f64,
}

/// The span recorder. Spans opened with [`Tracer::begin`] nest on the main
/// lane; spans with explicit times ([`Tracer::add`]) name their parent.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The innermost open main-lane span.
    pub fn current(&self) -> SpanId {
        self.stack.last().copied()
    }

    /// Open a main-lane span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        let id = self.push(name, layer, Lane::Main, now, now, self.current(), 1.0);
        self.stack.push(id);
        Some(id)
    }

    /// Close a span opened by [`Self::begin`] (and any still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = Instant::now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a main-lane span.
    pub fn span<T>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span with known times under `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        name: &str,
        layer: &'static str,
        lane: Lane,
        start: Instant,
        end: Instant,
        parent: SpanId,
        share: f64,
    ) -> SpanId {
        self.enabled
            .then(|| self.push(name, layer, lane, start, end.max(start), parent, share))
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &str,
        layer: &'static str,
        lane: Lane,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        share: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            lane,
            start,
            end,
            parent,
            share,
        });
        self.spans.len() - 1
    }

    fn dur(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        s.end.duration_since(s.start).as_secs_f64()
    }

    /// Effective weight of each span: the product of the shares on its
    /// path to the root.
    fn weights(&self) -> Vec<f64> {
        let mut w = vec![1.0f64; self.spans.len()];
        // Parents are always recorded before their children.
        for i in 0..self.spans.len() {
            let s = &self.spans[i];
            w[i] = s.share * s.parent.map_or(1.0, |p| w[p]);
        }
        w
    }

    /// Self time of every span: its weighted duration minus the weighted
    /// durations of its children.
    fn self_times(&self) -> Vec<f64> {
        let w = self.weights();
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| w[i] * self.dur(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= w[i] * self.dur(i);
            }
        }
        own
    }

    /// Self seconds summed per layer. Over a tree rooted in one span this
    /// adds up to the root's duration; the root's own layer holds the time
    /// no layer span covers.
    pub fn ledger(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, t) in self.self_times().into_iter().enumerate() {
            *out.entry(self.spans[i].layer).or_insert(0.0) += t;
        }
        out
    }

    /// Duration of span `id` in seconds (0 when tracing is off).
    pub fn duration(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| self.dur(i))
    }

    /// Self time of span `id` in seconds (0 when tracing is off).
    pub fn self_time(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| self.self_times()[i])
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, plus a
    /// lane name per `tid`.
    pub fn chrome_json(&self) -> Json {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let own = self.self_times();
        let mut lanes: Vec<Lane> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        let mut events: Vec<Json> = lanes
            .into_iter()
            .map(|lane| {
                Json::obj(vec![
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(lane.tid())),
                    ("args", Json::obj(vec![("name", Json::str(lane.label()))])),
                ])
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id", Json::Int(i as i64)),
                ("self_us", Json::Num(own[i] * 1e6)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Int(p as i64)));
            }
            events.push(Json::obj(vec![
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(us(s.start))),
                ("dur", Json::Num(self.dur(i) * 1e6)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.lane.tid())),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ledger_adds_up_to_the_root() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("root", "bench");
        let t0 = Instant::now();
        tr.span("a", "sim", || std::thread::sleep(Duration::from_millis(2)));
        let chunk = tr.add(
            "chunk",
            "sim",
            Lane::Main,
            t0,
            t0 + Duration::from_millis(4),
            root,
            1.0,
        );
        for r in 0..2 {
            let s = t0 + Duration::from_millis(1);
            tr.add(
                "c",
                "rank",
                Lane::Rank(r),
                s,
                s + Duration::from_millis(2),
                chunk,
                0.5,
            );
        }
        tr.end(root);
        let total: f64 = tr.ledger().values().sum();
        assert!((total - tr.duration(root)).abs() < 1e-12);
        // The chunk keeps the 2 ms its (averaged) rank children leave.
        assert!((tr.self_time(chunk) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("x", "sim");
        tr.end(id);
        assert!(id.is_none());
        assert!(tr.ledger().is_empty());
    }
}
