//! Harness-side spans: name, start, end and parent of every timed public
//! call, kept in memory and written out once when the run ends.
//!
//! A disabled [`Tracer`] runs the same closures without reading the
//! clock, which is the untraced twin the tracing overhead is measured
//! against.

use std::collections::BTreeMap;
use std::time::Instant;

use fua::trace::Json;

/// One recorded span.
struct Span {
    /// The public call (or command mirror) the span wraps.
    name: String,
    /// The per-layer metric its self time counts towards, if any.
    metric: Option<&'static str>,
    /// Start, in nanoseconds since the tracer was created.
    start: u64,
    /// End, in nanoseconds since the tracer was created.
    end: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer, or (with `enabled == false`) a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` whose self time counts
    /// towards `metric`. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        metric: Option<&'static str>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            metric,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        result
    }

    /// Whether any span counts towards `metric`.
    pub fn has_metric(&self, metric: &str) -> bool {
        self.spans.iter().any(|s| s.metric == Some(metric))
    }

    /// Each span's self time: its duration minus the length its
    /// children's intervals cover. Children are not clipped to the
    /// parent, so a child outside its parent shows as a negative self
    /// time, which `run.py` rejects.
    fn self_times(&self) -> Vec<i64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = 0;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) as i64 - covered as i64
            })
            .collect()
    }

    /// Self seconds summed per metric.
    pub fn metric_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if let Some(m) = s.metric {
                *out.entry(m).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// The spans as Chrome trace events (load in Perfetto): one complete
    /// (`"X"`) event per span on track `tid`, so nesting shows as a
    /// stack. `args` carry the metric, self time and parent.
    pub fn chrome_events(&self, tid: u64) -> Vec<Json> {
        self.spans
            .iter()
            .zip(self.self_times())
            .enumerate()
            .map(|(i, (s, own))| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(layer_of(s).to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Float(s.start as f64 / 1e3)),
                    ("dur", Json::Float((s.end - s.start) as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(tid)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::UInt(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            (
                                "metric",
                                s.metric.map_or(Json::Null, |m| Json::Str(m.into())),
                            ),
                            ("self_us", Json::Float(own as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// The crate a span belongs to: the prefix of its metric, or `harness`
/// for command and phase spans.
fn layer_of(s: &Span) -> &str {
    s.metric
        .and_then(|m| m.split('.').next())
        .unwrap_or("harness")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", Some("a.x_s"), |t| {
            t.span("inner", Some("b.y_s"), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_times();
        let outer = &t.spans[0];
        assert!((0..=(outer.end - outer.start) as i64).contains(&own[0]));
        assert!(own[1] >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        off.span("outer", None, |t| t.span("inner", None, |_| ()));
        assert!(off.spans.is_empty());
    }

    #[test]
    fn child_outside_its_parent_gives_negative_self_time() {
        let mut t = Tracer::new(true);
        let span = |name: &str, start, end, parent| Span {
            name: name.into(),
            metric: None,
            start,
            end,
            parent,
        };
        t.spans.push(span("parent", 100, 200, None));
        t.spans.push(span("child", 150, 300, Some(0)));
        assert_eq!(t.self_times(), vec![-50, 150]);
    }
}
