//! Lock-order-graph deadlock detection (the LockTree idea the paper cites
//! from JPF's runtime analysis).
//!
//! Whenever a thread acquires lock `b` while holding lock `a`, the edge
//! `a → b` is added to the lock-order graph. A cycle in the graph means two
//! threads can acquire the same locks in opposite orders — the potential
//! deadlock the paper's FF-T2 row describes ("one thread continuously holds
//! the lock" from the victim's point of view).

use std::collections::{BTreeMap, BTreeSet};

use jcc_runtime::online::cycles_of;

use crate::normalize::{MonEvent, MonEventKind};

/// A cycle found in the lock-order graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderCycle {
    /// The locks on the cycle, starting from the smallest id.
    pub locks: Vec<u64>,
}

/// The accumulated lock-order graph.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    /// edge a → b with the set of threads that exhibited it.
    edges: BTreeMap<u64, BTreeMap<u64, BTreeSet<u64>>>,
    held: BTreeMap<u64, Vec<u64>>,
}

impl LockOrderGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the graph from a whole event stream.
    pub fn build(events: &[MonEvent]) -> Self {
        let mut g = Self::new();
        for e in events {
            g.observe(e);
        }
        g
    }

    /// Feed one event.
    pub fn observe(&mut self, event: &MonEvent) {
        match event.kind {
            MonEventKind::Acquire(lock) => {
                let held = self.held.entry(event.thread).or_default();
                for &h in held.iter() {
                    if h != lock {
                        self.edges
                            .entry(h)
                            .or_default()
                            .entry(lock)
                            .or_default()
                            .insert(event.thread);
                    }
                }
                held.push(lock);
            }
            MonEventKind::Release(lock) => {
                if let Some(held) = self.held.get_mut(&event.thread) {
                    if let Some(pos) = held.iter().rposition(|&h| h == lock) {
                        held.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    /// Edges as (from, to, threads) triples.
    pub fn edges(&self) -> Vec<(u64, u64, Vec<u64>)> {
        let mut out = Vec::new();
        for (&a, targets) in &self.edges {
            for (&b, threads) in targets {
                out.push((a, b, threads.iter().copied().collect()));
            }
        }
        out
    }

    /// Find all elementary cycles' node sets (reported once per strongly
    /// connected component with ≥ 2 nodes, or a self-loop).
    pub fn cycles(&self) -> Vec<LockOrderCycle> {
        cycles_of(&self.edges)
            .into_iter()
            .map(|locks| LockOrderCycle { locks })
            .collect()
    }

    /// True when the graph has no cycles — a consistent global lock order
    /// exists.
    pub fn is_acyclic(&self) -> bool {
        self.cycles().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acq(thread: u64, lock: u64) -> MonEvent {
        MonEvent {
            thread,
            kind: MonEventKind::Acquire(lock),
        }
    }
    fn rel(thread: u64, lock: u64) -> MonEvent {
        MonEvent {
            thread,
            kind: MonEventKind::Release(lock),
        }
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let events = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 1),
            acq(2, 2),
            rel(2, 2),
            rel(2, 1),
        ];
        let g = LockOrderGraph::build(&events);
        assert!(g.is_acyclic());
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn opposite_orders_cycle() {
        let events = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 2),
            acq(2, 1),
            rel(2, 1),
            rel(2, 2),
        ];
        let g = LockOrderGraph::build(&events);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec![1, 2]);
    }

    #[test]
    fn three_lock_rotation_cycles() {
        let events = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 2),
            acq(2, 3),
            rel(2, 3),
            rel(2, 2),
            acq(3, 3),
            acq(3, 1),
            rel(3, 1),
            rel(3, 3),
        ];
        let g = LockOrderGraph::build(&events);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec![1, 2, 3]);
    }

    #[test]
    fn wait_release_breaks_nesting() {
        // Thread holds 1, acquires 2, releases 2 via wait, re-acquires:
        // still just edge 1 -> 2.
        let events = vec![acq(1, 1), acq(1, 2), rel(1, 2), acq(1, 2)];
        let g = LockOrderGraph::build(&events);
        assert!(g.is_acyclic());
    }

    #[test]
    fn lock_order_component_detected_via_vm() {
        use jcc_vm::{compile, CallSpec, RunConfig, ThreadSpec, Vm};
        let c = jcc_model::examples::lock_order_deadlock();
        // A single thread running both methods sequentially exhibits both
        // acquisition orders without deadlocking — the detector predicts the
        // deadlock a concurrent run could hit.
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "t".into(),
                calls: vec![
                    CallSpec::new("forward", vec![]),
                    CallSpec::new("backward", vec![]),
                ],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let norm = crate::normalize::from_vm_trace(&out.trace);
        let g = LockOrderGraph::build(&norm);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "opposite lock orders must cycle");
        // Locks 1 and 2 are `a` and `b` (0 is `this`).
        assert_eq!(cycles[0].locks, vec![1, 2]);
    }

    #[test]
    fn edges_record_threads() {
        let events = vec![acq(7, 1), acq(7, 2)];
        let g = LockOrderGraph::build(&events);
        let edges = g.edges();
        assert_eq!(edges, vec![(1, 2, vec![7])]);
    }

    #[test]
    fn dining_philosophers_cycle_predicted_and_fix_verified() {
        use jcc_vm::{compile, CallSpec, RunConfig, ThreadSpec, Vm};
        // The circular version: one probe thread runs all three eats;
        // the lock-order graph must contain the 3-cycle.
        let bad = jcc_model::examples::dining_deadlock();
        let mut vm = Vm::new(
            compile(&bad).unwrap(),
            vec![ThreadSpec {
                name: "probe".into(),
                calls: vec![
                    CallSpec::new("eat0", vec![]),
                    CallSpec::new("eat1", vec![]),
                    CallSpec::new("eat2", vec![]),
                ],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let g = LockOrderGraph::build(&crate::normalize::from_vm_trace(&out.trace));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks.len(), 3);

        // The hierarchy-ordered version: acyclic.
        let good = jcc_model::examples::dining_ordered();
        let mut vm = Vm::new(
            compile(&good).unwrap(),
            vec![ThreadSpec {
                name: "probe".into(),
                calls: vec![
                    CallSpec::new("eat0", vec![]),
                    CallSpec::new("eat1", vec![]),
                    CallSpec::new("eat2", vec![]),
                ],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let g = LockOrderGraph::build(&crate::normalize::from_vm_trace(&out.trace));
        assert!(g.is_acyclic());
    }

    #[test]
    fn dining_deadlock_confirmed_and_fix_holds_exhaustively() {
        use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};
        let philosophers = |component: &jcc_model::Component| {
            let vm = Vm::new(
                compile(component).unwrap(),
                (0..3)
                    .map(|i| ThreadSpec {
                        name: format!("p{i}"),
                        calls: vec![CallSpec::new(format!("eat{i}"), vec![])],
                    })
                    .collect(),
            );
            explore(vm, &ExploreConfig::default(), None)
        };
        let bad = philosophers(&jcc_model::examples::dining_deadlock());
        assert!(bad.deadlock_paths > 0, "circular wait must deadlock somewhere");
        let good = philosophers(&jcc_model::examples::dining_ordered());
        assert_eq!(good.deadlock_paths, 0, "resource hierarchy prevents deadlock");
        assert!(good.completed_paths > 0);
    }
}
