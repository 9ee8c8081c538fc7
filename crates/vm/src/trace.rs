//! VM trace events, the shared-prefix log a VM keeps them in, and their
//! conversion to CoFG coverage markers.

use std::sync::Arc;

use jcc_cofg::coverage::{CoverageTracker, Marker, SiteId};
use jcc_model::ast::StmtPath;
use jcc_petri::Transition;

/// What a trace event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A Figure-1 transition fired on `lock`.
    Transition {
        /// Which transition.
        t: Transition,
        /// Lock index within the compiled component (0 = `this`).
        lock: usize,
    },
    /// The thread issued a notification.
    NotifyIssued {
        /// Lock index.
        lock: usize,
        /// `notifyAll`?
        all: bool,
        /// Waiters present at the instant of notification.
        waiters: usize,
    },
    /// A method call began.
    MethodStart {
        /// Method name.
        method: String,
    },
    /// A method call returned.
    MethodEnd {
        /// Method name.
        method: String,
    },
    /// A concurrency statement was executed (coverage site). For explicit
    /// `synchronized` blocks, `exit` distinguishes leaving from entering.
    Site {
        /// Method name.
        method: String,
        /// Statement path.
        path: Vec<usize>,
        /// True for the exit side of an explicit `synchronized` block.
        exit: bool,
    },
    /// A shared field was read (while evaluating an expression).
    FieldRead {
        /// Field name.
        field: String,
    },
    /// A shared field was written.
    FieldWrite {
        /// Field name.
        field: String,
    },
    /// The thread faulted.
    Fault {
        /// Description.
        message: String,
    },
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The global step counter when the event fired.
    pub step: usize,
    /// The logical thread index.
    pub thread: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A VM's trace as a shared-prefix log: a chain of sealed segments that VM
/// snapshots share, plus the open buffer of events since the last seal.
/// Cloning copies only the open buffer, so after [`seal`](Self::seal) a
/// snapshot costs the same at any depth.
#[derive(Clone, Default)]
pub(crate) struct TraceLog {
    sealed: Option<Arc<Segment>>,
    open: Vec<TraceEvent>,
}

/// One sealed run of events, linked to the segment sealed before it.
struct Segment {
    events: Vec<TraceEvent>,
    parent: Option<Arc<Segment>>,
}

impl Drop for Segment {
    /// Unlink the chain iteratively: the default drop would recurse once
    /// per segment, and a chain is as long as the deepest path.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(segment) = next {
            next = match Arc::try_unwrap(segment) {
                Ok(mut owned) => owned.parent.take(),
                Err(_) => None,
            };
        }
    }
}

impl TraceLog {
    /// Append an event to the open buffer.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.open.push(event);
    }

    /// Move the open buffer into a new shared segment.
    pub(crate) fn seal(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.open);
        let parent = self.sealed.take();
        self.sealed = Some(Arc::new(Segment { events, parent }));
    }

    /// The whole event sequence in order, read in place.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let mut segments = Vec::new();
        let mut cur = self.sealed.as_ref();
        while let Some(segment) = cur {
            segments.push(segment.events.as_slice());
            cur = segment.parent.as_ref();
        }
        segments.into_iter().rev().flatten().chain(&self.open)
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Fold a trace into a CoFG coverage tracker. Thread indices become
/// tracker thread ids directly.
pub fn apply_trace<'a>(
    trace: impl IntoIterator<Item = &'a TraceEvent>,
    tracker: &mut CoverageTracker,
) {
    for event in trace {
        let thread = event.thread as u64;
        match &event.kind {
            TraceEventKind::MethodStart { method } => {
                tracker.record(thread, &SiteId::start(method.clone()));
            }
            TraceEventKind::MethodEnd { method } => {
                tracker.record(thread, &SiteId::end(method.clone()));
            }
            TraceEventKind::Site { method, path, exit } => {
                let marker = if *exit {
                    Marker::SyncExit(StmtPath(path.clone()))
                } else {
                    Marker::Stmt(StmtPath(path.clone()))
                };
                tracker.record(
                    thread,
                    &SiteId {
                        method: method.clone(),
                        marker,
                    },
                );
            }
            _ => {}
        }
    }
}

/// Render a trace as a human-readable interleaving story, one line per
/// event, with thread names substituted. The `locks` slice supplies lock
/// display names (index 0 is `this`).
pub fn render_trace(trace: &[TraceEvent], thread_names: &[String], locks: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let name = |i: usize| {
        thread_names
            .get(i)
            .map(String::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let lock_name = |i: usize| locks.get(i).map(String::as_str).unwrap_or("?").to_string();
    for e in trace {
        let who = name(e.thread);
        let line = match &e.kind {
            TraceEventKind::MethodStart { method } => format!("{who} calls {method}()"),
            TraceEventKind::MethodEnd { method } => format!("{who} returns from {method}()"),
            TraceEventKind::Transition { t, lock } => {
                let l = lock_name(*lock);
                match t {
                    Transition::T1 => format!("{who} requests lock `{l}` (T1)"),
                    Transition::T2 => format!("{who} acquires lock `{l}` (T2)"),
                    Transition::T3 => format!("{who} waits on `{l}`, releasing it (T3)"),
                    Transition::T4 => format!("{who} releases lock `{l}` (T4)"),
                    Transition::T5 => format!("{who} is woken on `{l}` (T5)"),
                }
            }
            TraceEventKind::NotifyIssued { lock, all, waiters } => format!(
                "{who} calls {} on `{}` ({} waiter(s) present)",
                if *all { "notifyAll" } else { "notify" },
                lock_name(*lock),
                waiters
            ),
            TraceEventKind::Site { .. } => continue_marker(),
            TraceEventKind::FieldRead { field } => format!("{who} reads `{field}`"),
            TraceEventKind::FieldWrite { field } => format!("{who} writes `{field}`"),
            TraceEventKind::Fault { message } => format!("{who} FAULTS: {message}"),
        };
        if line.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  [{:>4}] {line}", e.step);
    }
    out
}

fn continue_marker() -> String {
    String::new() // coverage sites are bookkeeping, not narrative
}

/// Count occurrences of each Figure-1 transition in a trace, indexed by
/// [`Transition::index`].
pub fn transition_counts(trace: &[TraceEvent]) -> [usize; 5] {
    let mut counts = [0usize; 5];
    for event in trace {
        if let TraceEventKind::Transition { t, .. } = event.kind {
            counts[t.index()] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{CallSpec, RunConfig, ThreadSpec, Vm};
    use crate::value::Value;
    use jcc_cofg::build_component_cofgs;
    use jcc_model::examples;

    #[test]
    fn trace_drives_coverage() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "c".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
                ThreadSpec {
                    name: "p".into(),
                    calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
                },
            ],
        );
        let out = vm.run(&RunConfig::default());
        let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
        apply_trace(&out.trace, &mut tracker);
        assert_eq!(tracker.strays, 0);
        // The consumer either waited first (covering start->wait) or not;
        // in round-robin it starts first and waits.
        assert!(tracker.covered_arcs() >= 3);
    }

    #[test]
    fn transition_counts_tally() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let counts = transition_counts(&out.trace);
        // T1, T2, T4 once each; no wait or wake.
        assert_eq!(counts, [1, 1, 0, 1, 0]);
    }

    #[test]
    fn sync_block_sites_cover_enter_and_exit() {
        let c = examples::lock_order_deadlock();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "t".into(),
                calls: vec![CallSpec::new("forward", vec![])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
        apply_trace(&out.trace, &mut tracker);
        assert_eq!(tracker.strays, 0);
        // forward's CoFG has 5 arcs, all covered by one uncontended run.
        let per = tracker.per_method();
        let fwd = per.iter().find(|(m, _, _)| m == "forward").unwrap();
        assert_eq!((fwd.1, fwd.2), (5, 5));
    }

    #[test]
    fn render_trace_tells_the_story() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "consumer".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
                ThreadSpec {
                    name: "producer".into(),
                    calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
                },
            ],
        );
        let out = vm.run(&RunConfig::default());
        let text = render_trace(
            &out.trace,
            &["consumer".to_string(), "producer".to_string()],
            &["this".to_string()],
        );
        assert!(text.contains("consumer calls receive()"), "{text}");
        assert!(text.contains("consumer waits on `this`, releasing it (T3)"));
        assert!(text.contains("producer calls notifyAll on `this` (1 waiter(s) present)"));
        assert!(text.contains("consumer is woken on `this` (T5)"));
        assert!(text.contains("producer returns from send()"));
        // Coverage sites are omitted from the narrative.
        assert!(!text.contains("Site"));
    }
}
