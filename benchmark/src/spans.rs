//! The harness's own spans: one around every call it makes into a layer,
//! recorded from outside the program, kept in memory and written as a
//! Chrome trace when the run ends.
//!
//! A span carries its name, start, end, the span that caused it (its
//! parent) and the repetition it belongs to. Its *self time* is its duration
//! minus the part of that interval its child spans cover.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Repetition id: spans of one operation share it.
    pub rep: u32,
    /// Recording thread, as a small dense index (the trace's `tid`).
    pub thread: usize,
}

thread_local! {
    /// The innermost open span of this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
    static THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

fn thread_index() -> usize {
    THREAD.with(|t| match t.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(i));
            i
        }
    })
}

/// The span log. Disabled logs (the untraced pass) run the closure and
/// record nothing.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of this thread's innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, rep: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = CURRENT.with(Cell::get);
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                rep,
                thread: thread_index(),
            });
            spans.len() - 1
        };
        CURRENT.with(|c| c.set(Some(id)));
        let out = f();
        CURRENT.with(|c| c.set(parent));
        self.spans.lock().expect("span log poisoned")[id].end_ns =
            self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The innermost open span of the calling thread, to hand to
    /// [`SpanLog::adopt`] on a thread it spawns.
    pub fn current(&self) -> Option<usize> {
        CURRENT.with(Cell::get)
    }

    /// Makes `parent` the cause of the spans this (new) thread records.
    pub fn adopt(&self, parent: Option<usize>) {
        CURRENT.with(|c| c.set(parent));
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals (children on parallel threads overlap; the union counts the
    /// covered part once).
    pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (
                    s.start_ns.max(spans[p].start_ns),
                    s.end_ns.min(spans[p].end_ns),
                );
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The log as Chrome-trace JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per recording thread.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let spans = self.spans.lock().expect("span log poisoned").clone();
        let self_ns = Self::self_times_ns(&spans);
        let mut events = vec![Value::obj([
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Num(0.0)),
            (
                "args",
                Value::obj([("name", Value::Str(format!("perfbench {workload}")))]),
            ),
        ])];
        for (id, (s, self_ns)) in spans.iter().zip(self_ns).enumerate() {
            events.push(Value::obj([
                ("name", Value::Str(s.name.into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::Num(0.0)),
                ("tid", Value::Num(s.thread as f64)),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("rep", Value::Num(f64::from(s.rep))),
                        ("self_us", Value::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Value::obj([
            ("displayTimeUnit", Value::Str("ms".into())),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two children overlap on [40, 60): the parent's 100 ns lose 70.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
        ];
        assert_eq!(SpanLog::self_times_ns(&spans), vec![30, 50, 40]);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let log = SpanLog::new(true);
        log.span("outer", 1, || log.span("inner", 1, || ()));
        log.span("next", 2, || ());
        let spans = log.spans.lock().unwrap();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        assert_eq!(log.span("x", 0, || 7), 7);
        assert!(log.spans.lock().unwrap().is_empty());
    }
}
