//! Online (streaming) detectors: incremental lockset, lock-order and
//! lost-notification analysis over the live event stream.
//!
//! Where `jcc-detect` runs post-hoc over a full snapshot, an
//! [`OnlineMonitor`] consumes events *as they are drained* (e.g. from
//! [`EventLog::drain_for_each`](crate::EventLog::drain_for_each)) and can
//! raise [`OnlineAlert`]s mid-run, at the event that completes the
//! evidence. The algorithms are ports of the detectors the paper cites —
//! Eraser locksets (FF-T1), the lock-order graph (FF-T2) and the
//! lost-notification shape (FF-T5) — consuming runtime events directly
//! under the same normalization `jcc-detect` uses (`T2` acquires, `T3`/`T4`
//! release, `Read`/`Write` access).
//!
//! # The differential guarantee
//!
//! On a fully-sampled, no-drop stream, [`OnlineMonitor::verdicts`]
//! byte-matches the post-hoc reference `jcc_detect::classify_runtime_events`
//! (same findings, same evidence strings, same order) — pinned by the
//! `online_monitor` integration suite over every zoo component.
//!
//! # Degraded mode (capture gaps)
//!
//! Rings are per-thread, so a [`CaptureGap`](crate::EventKind::CaptureGap)
//! from thread *t* means only *t*'s stream has holes — every other
//! thread's stream is still complete. On a gap the monitor:
//!
//! * permanently excludes *t*'s later data accesses from lockset analysis
//!   (an under-approximated held-set could otherwise empty a candidate
//!   set and fabricate a race), and
//! * clears *t*'s held-lock stack; post-gap nesting is rebuilt only from
//!   observed acquires, so every lock-order edge still corresponds to a
//!   real nesting (missing edges only *shrink* cycles).
//!
//! The result is the subset guarantee: degraded verdicts never introduce a
//! false subject — every reported race variable is racy on the full
//! stream, every reported cycle is contained in a full-stream cycle, and
//! every lost-notification monitor really issued a wasted notify. (With
//! drops, evidence *strings* may differ — e.g. a race may be pinned on a
//! different thread — which is why the guarantee is stated over subjects,
//! exposed via [`OnlineMonitor::race_vars`],
//! [`OnlineMonitor::cycle_lock_sets`] and
//! [`OnlineMonitor::lost_monitors`].)

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use jcc_petri::{Deviation, FailureClass, Transition};

use crate::events::{Event, EventKind};

/// A finding raised by the online monitor — same shape (and, on no-drop
/// streams, same rendering) as `jcc_detect::Finding`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineFinding {
    /// The Table-1 failure class.
    pub class: FailureClass,
    /// What was observed.
    pub evidence: String,
}

impl fmt::Display for OnlineFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class.code(), self.evidence)
    }
}

/// A finding raised mid-run, stamped with the event that completed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineAlert {
    /// `seq` of the triggering event.
    pub seq: u64,
    /// The finding at that point.
    pub finding: OnlineFinding,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum VarState {
    Virgin,
    Exclusive(u64),
    Shared,
    SharedModified,
}

/// One race record, mirroring `jcc_detect::lockset::RaceReport`.
#[derive(Debug, Clone)]
struct Race {
    var: String,
    on_write: bool,
    thread: u64,
}

/// The streaming monitor. Feed every drained event to
/// [`OnlineMonitor::observe`]; read [`OnlineMonitor::alerts`] mid-run and
/// [`OnlineMonitor::verdicts`] at the end.
#[derive(Debug, Default)]
pub struct OnlineMonitor {
    // --- incremental Eraser lockset ---
    held_sets: HashMap<u64, BTreeSet<u64>>,
    var_state: HashMap<String, VarState>,
    candidates: HashMap<String, BTreeSet<u64>>,
    reported_vars: BTreeSet<String>,
    races: Vec<Race>,
    // --- incremental lock-order graph ---
    edges: BTreeMap<u64, BTreeMap<u64, BTreeSet<u64>>>,
    held_stacks: BTreeMap<u64, Vec<u64>>,
    cycle_alerted: BTreeSet<(u64, u64)>,
    // --- lost notifications ---
    lost: BTreeMap<u64, u64>,
    // --- degradation ---
    gapped_threads: HashSet<u64>,
    dropped_events: u64,
    // --- bookkeeping ---
    alerts: Vec<OnlineAlert>,
    events_seen: u64,
}

impl OnlineMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one event.
    pub fn observe(&mut self, e: &Event) {
        self.events_seen += 1;
        match &e.kind {
            EventKind::Transition(Transition::T2) => self.acquire(e.seq, e.thread, e.monitor.0),
            EventKind::Transition(Transition::T3) | EventKind::Transition(Transition::T4) => {
                self.release(e.thread, e.monitor.0)
            }
            EventKind::Read { var } => self.access(e.seq, e.thread, var.clone(), false),
            EventKind::Write { var } => self.access(e.seq, e.thread, var.clone(), true),
            EventKind::NotifyIssued { waiters: 0, .. } => {
                let n = self.lost.entry(e.monitor.0).or_insert(0);
                *n += 1;
                if *n == 1 {
                    let finding = lost_finding(e.monitor.0, 1);
                    self.push_alert(e.seq, finding);
                }
            }
            EventKind::CaptureGap { dropped } => {
                self.dropped_events += *dropped;
                self.gapped_threads.insert(e.thread);
                self.held_sets.remove(&e.thread);
                self.held_stacks.remove(&e.thread);
            }
            _ => {}
        }
    }

    /// Feed a whole slice (replay convenience).
    pub fn observe_all(&mut self, events: &[Event]) {
        for e in events {
            self.observe(e);
        }
    }

    fn acquire(&mut self, seq: u64, thread: u64, lock: u64) {
        // Lockset held-set (set semantics: reentrant re-entries invisible).
        self.held_sets.entry(thread).or_default().insert(lock);
        // Lock-order edges from current nesting, with a reachability check
        // on every *new* edge — the mid-run cycle alert.
        let held = self.held_stacks.entry(thread).or_default().clone();
        for &h in &held {
            if h != lock {
                let threads = self.edges.entry(h).or_default().entry(lock).or_default();
                let fresh = threads.insert(thread) && threads.len() == 1;
                if fresh && self.reaches(lock, h) && self.cycle_alerted.insert((h, lock)) {
                    let finding = OnlineFinding {
                        class: FailureClass::new(Deviation::FailureToFire, Transition::T2),
                        evidence: format!(
                            "acquiring lock {lock} while holding lock {h} closes a lock-order \
                             cycle — threads taking the opposite order can deadlock"
                        ),
                    };
                    self.push_alert(seq, finding);
                }
            }
        }
        self.held_stacks.entry(thread).or_default().push(lock);
    }

    fn release(&mut self, thread: u64, lock: u64) {
        if let Some(set) = self.held_sets.get_mut(&thread) {
            set.remove(&lock);
        }
        if let Some(stack) = self.held_stacks.get_mut(&thread) {
            if let Some(pos) = stack.iter().rposition(|&h| h == lock) {
                stack.remove(pos);
            }
        }
    }

    fn access(&mut self, seq: u64, thread: u64, var: String, is_write: bool) {
        if self.gapped_threads.contains(&thread) {
            // Degraded thread: its held set may under-approximate reality,
            // so counting its accesses could empty a candidate set that a
            // full capture would keep populated — a false positive. Skip.
            return;
        }
        let held = self.held_sets.get(&thread).cloned().unwrap_or_default();
        let state = self
            .var_state
            .get(&var)
            .cloned()
            .unwrap_or(VarState::Virgin);
        let next = match (&state, is_write) {
            (VarState::Virgin, _) => VarState::Exclusive(thread),
            (VarState::Exclusive(t), _) if *t == thread => VarState::Exclusive(thread),
            (VarState::Exclusive(_), false) => {
                self.candidates.insert(var.clone(), held.clone());
                VarState::Shared
            }
            (VarState::Exclusive(_), true) => {
                self.candidates.insert(var.clone(), held.clone());
                VarState::SharedModified
            }
            (VarState::Shared, false) => {
                self.refine(&var, &held);
                VarState::Shared
            }
            (VarState::Shared, true) => {
                self.refine(&var, &held);
                VarState::SharedModified
            }
            (VarState::SharedModified, _) => {
                self.refine(&var, &held);
                VarState::SharedModified
            }
        };
        let in_shared_modified = next == VarState::SharedModified;
        self.var_state.insert(var.clone(), next);
        if in_shared_modified
            && self
                .candidates
                .get(&var)
                .map(BTreeSet::is_empty)
                .unwrap_or(false)
            && self.reported_vars.insert(var.clone())
        {
            let race = Race {
                var,
                on_write: is_write,
                thread,
            };
            let finding = race_finding(&race);
            self.races.push(race);
            self.push_alert(seq, finding);
        }
    }

    fn refine(&mut self, var: &str, held: &BTreeSet<u64>) {
        if let Some(c) = self.candidates.get_mut(var) {
            *c = c.intersection(held).copied().collect();
        }
    }

    /// Is `to` reachable from `from` in the current edge set?
    fn reaches(&self, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(targets) = self.edges.get(&n) {
                stack.extend(targets.keys().copied());
            }
        }
        false
    }

    fn push_alert(&mut self, seq: u64, finding: OnlineFinding) {
        self.alerts.push(OnlineAlert { seq, finding });
    }

    /// Findings raised mid-run so far, in raise order. Alert evidence is
    /// the state *at the triggering event* (e.g. a lost-notification count
    /// of 1); [`OnlineMonitor::verdicts`] renders the final tallies.
    pub fn alerts(&self) -> &[OnlineAlert] {
        &self.alerts
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// True once any capture gap has been observed — verdicts are then a
    /// sound subset rather than byte-exact (see the module docs).
    pub fn degraded(&self) -> bool {
        !self.gapped_threads.is_empty()
    }

    /// Events lost to capture gaps, as reported by the gap records.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Race subjects: the variables with a confirmed empty candidate
    /// lockset, in report order.
    pub fn race_vars(&self) -> Vec<String> {
        self.races.iter().map(|r| r.var.clone()).collect()
    }

    /// Cycle subjects: each strongly connected lock set (sorted), from
    /// the incrementally built graph.
    pub fn cycle_lock_sets(&self) -> Vec<Vec<u64>> {
        cycles_of(&self.edges)
    }

    /// Lost-notification subjects: monitors that issued a notification
    /// with nobody in the wait set.
    pub fn lost_monitors(&self) -> Vec<u64> {
        self.lost.keys().copied().collect()
    }

    /// Final verdicts: lockset races (report order), lock-order cycles
    /// (SCCs over the incrementally built graph — `O(graph)`, the stream
    /// is never re-read), then lost notifications (by monitor id),
    /// deduplicated. On a no-drop stream this byte-matches
    /// `jcc_detect::classify_runtime_events`.
    pub fn verdicts(&self) -> Vec<OnlineFinding> {
        let mut out: Vec<OnlineFinding> = self.races.iter().map(race_finding).collect();
        out.extend(self.cycle_lock_sets().into_iter().map(|locks| OnlineFinding {
            class: FailureClass::new(Deviation::FailureToFire, Transition::T2),
            evidence: cycle_evidence(&locks),
        }));
        out.extend(
            self.lost
                .iter()
                .map(|(&monitor, &count)| lost_finding(monitor, count)),
        );
        let mut seen = HashSet::new();
        out.retain(|f| seen.insert((f.class, f.evidence.clone())));
        out
    }
}

// --- evidence rendering ---------------------------------------------------
//
// These strings are the byte-match contract with `jcc-detect`
// (`classify_races` / `classify_cycles` / `classify_lost_notifications`);
// change them only in lockstep.

fn race_finding(r: &Race) -> OnlineFinding {
    OnlineFinding {
        class: FailureClass::new(Deviation::FailureToFire, Transition::T1),
        evidence: format!(
            "variable `{}` accessed by multiple threads with an empty candidate \
             lockset (thread {} {} without consistent locking)",
            r.var,
            r.thread,
            if r.on_write { "wrote" } else { "read" }
        ),
    }
}

fn cycle_evidence(locks: &[u64]) -> String {
    format!(
        "locks {locks:?} are acquired in inconsistent orders — two threads can block \
         each other forever"
    )
}

/// The FF-T5 evidence line (`count` wasted notifications on `monitor`).
pub(crate) fn lost_notification_evidence(monitor: u64, count: u64) -> String {
    format!(
        "monitor {monitor} issued {count} notification(s) with no thread in the wait \
         set — the wake-ups were lost"
    )
}

fn lost_finding(monitor: u64, count: u64) -> OnlineFinding {
    OnlineFinding {
        class: FailureClass::new(Deviation::FailureToFire, Transition::T5),
        evidence: lost_notification_evidence(monitor, count),
    }
}

/// SCCs (≥ 2 nodes, or a self-loop) of a lock-order graph given as
/// `from → to → threads`, each sorted ascending, in Tarjan completion
/// order over the ascending node ids. `jcc_detect::lockorder` calls this
/// too, so online and post-hoc verdicts match byte for byte.
pub fn cycles_of(edges: &BTreeMap<u64, BTreeMap<u64, BTreeSet<u64>>>) -> Vec<Vec<u64>> {
    let nodes: Vec<u64> = edges
        .iter()
        .flat_map(|(&a, ts)| std::iter::once(a).chain(ts.keys().copied()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of: BTreeMap<u64, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = nodes.len();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|a| {
            edges
                .get(a)
                .map(|ts| ts.keys().map(|b| index_of[b]).collect())
                .unwrap_or_default()
        })
        .collect();
    let mut sccs = tarjan(n, &adj);
    sccs.retain(|scc| scc.len() > 1 || adj[scc[0]].contains(&scc[0]));
    sccs.into_iter()
        .map(|mut scc| {
            scc.sort_unstable();
            scc.into_iter().map(|i| nodes[i]).collect()
        })
        .collect()
}

fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeInfo {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    struct State<'a> {
        adj: &'a [Vec<usize>],
        info: Vec<NodeInfo>,
        stack: Vec<usize>,
        next_index: usize,
        sccs: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, st: &mut State<'_>) {
        st.info[v].index = Some(st.next_index);
        st.info[v].lowlink = st.next_index;
        st.next_index += 1;
        st.stack.push(v);
        st.info[v].on_stack = true;
        for i in 0..st.adj[v].len() {
            let w = st.adj[v][i];
            if st.info[w].index.is_none() {
                strongconnect(w, st);
                st.info[v].lowlink = st.info[v].lowlink.min(st.info[w].lowlink);
            } else if st.info[w].on_stack {
                st.info[v].lowlink = st.info[v].lowlink.min(st.info[w].index.unwrap());
            }
        }
        if Some(st.info[v].lowlink) == st.info[v].index {
            let mut scc = Vec::new();
            loop {
                let w = st.stack.pop().unwrap();
                st.info[w].on_stack = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            st.sccs.push(scc);
        }
    }
    let mut st = State {
        adj,
        info: vec![
            NodeInfo {
                index: None,
                lowlink: 0,
                on_stack: false
            };
            n
        ],
        stack: Vec::new(),
        next_index: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if st.info[v].index.is_none() {
            strongconnect(v, &mut st);
        }
    }
    st.sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MonitorId;
    use jcc_petri::Transition as T;

    fn ev(seq: u64, thread: u64, monitor: u64, kind: EventKind) -> Event {
        Event {
            seq,
            thread,
            monitor: MonitorId(monitor),
            kind,
        }
    }

    fn acq(seq: u64, t: u64, l: u64) -> Event {
        ev(seq, t, l, EventKind::Transition(T::T2))
    }
    fn rel(seq: u64, t: u64, l: u64) -> Event {
        ev(seq, t, l, EventKind::Transition(T::T4))
    }
    fn wr(seq: u64, t: u64, var: &str) -> Event {
        ev(seq, t, 0, EventKind::Write { var: var.into() })
    }

    #[test]
    fn race_alert_raised_at_the_offending_event() {
        let mut m = OnlineMonitor::new();
        m.observe_all(&[wr(0, 1, "x"), wr(1, 2, "x")]);
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].seq, 1);
        assert_eq!(m.alerts()[0].finding.class.code(), "FF-T1");
        assert_eq!(m.race_vars(), vec!["x".to_string()]);
        assert_eq!(m.verdicts().len(), 1);
    }

    #[test]
    fn cycle_alert_on_edge_insertion_and_scc_verdict() {
        let mut m = OnlineMonitor::new();
        m.observe_all(&[
            acq(0, 1, 1),
            acq(1, 1, 2),
            rel(2, 1, 2),
            rel(3, 1, 1),
            acq(4, 2, 2),
            acq(5, 2, 1), // closes the cycle — alert here
            rel(6, 2, 1),
            rel(7, 2, 2),
        ]);
        let cycle_alerts: Vec<_> = m
            .alerts()
            .iter()
            .filter(|a| a.finding.class.code() == "FF-T2")
            .collect();
        assert_eq!(cycle_alerts.len(), 1);
        assert_eq!(cycle_alerts[0].seq, 5);
        assert_eq!(m.cycle_lock_sets(), vec![vec![1, 2]]);
        let v = m.verdicts();
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().starts_with("FF-T2: locks [1, 2]"));
    }

    #[test]
    fn lost_notification_tallied_per_monitor() {
        let mut m = OnlineMonitor::new();
        let lost = |seq, mon| {
            ev(
                seq,
                1,
                mon,
                EventKind::NotifyIssued {
                    all: false,
                    waiters: 0,
                },
            )
        };
        m.observe_all(&[lost(0, 3), lost(1, 3), lost(2, 5)]);
        assert_eq!(m.lost_monitors(), vec![3, 5]);
        assert_eq!(m.alerts().len(), 2, "one alert per monitor");
        let v = m.verdicts();
        assert_eq!(v.len(), 2);
        assert!(v[0].evidence.contains("monitor 3 issued 2 notification(s)"));
        assert!(v[1].evidence.contains("monitor 5 issued 1 notification(s)"));
    }

    #[test]
    fn gap_taints_thread_and_suppresses_its_accesses() {
        let mut m = OnlineMonitor::new();
        // Thread 2 held a lock before its gap; the lockset must not trust
        // its post-gap (apparently lock-free) accesses.
        m.observe_all(&[
            acq(0, 1, 10),
            wr(1, 1, "x"),
            rel(2, 1, 10),
            ev(3, 2, 0, EventKind::CaptureGap { dropped: 4 }),
            wr(4, 2, "x"), // would race if trusted — suppressed
        ]);
        assert!(m.degraded());
        assert_eq!(m.dropped_events(), 4);
        assert!(m.verdicts().is_empty(), "{:?}", m.verdicts());
        // Untainted threads still race normally.
        m.observe_all(&[wr(5, 3, "x")]);
        assert_eq!(m.race_vars(), vec!["x".to_string()]);
    }

    #[test]
    fn notify_with_waiters_is_not_lost() {
        let mut m = OnlineMonitor::new();
        m.observe(&ev(
            0,
            1,
            2,
            EventKind::NotifyIssued {
                all: true,
                waiters: 3,
            },
        ));
        assert!(m.verdicts().is_empty());
    }
}
