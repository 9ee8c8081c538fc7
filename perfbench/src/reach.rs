//! `reach`: `ReachGraph::explore(JavaNet::new(n).net(), ReachLimits::default())`
//! for `n` on a ladder, with the limits users get by default.

use std::path::Path;

use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits};

use crate::trace::{count, span, span_if};
use crate::util::{median, Fnv, Rng};
use crate::{ensure, Verdict, Workload};

/// From 7 290 markings (cache-resident) to 255 879 (RAM-resident), with
/// the runs of each net in one pass. With four sizes the median item is
/// the mean of JavaNet(8) and JavaNet(9): JavaNet(8) alone, a 0.1 s
/// parallel exploration, moved the median by a quarter between runs.
const LADDER: [(usize, usize); 4] = [(7, 4), (8, 6), (9, 3), (10, 1)];

pub struct Reach {
    nets: Vec<(usize, JavaNet)>,
    seed: u64,
}

/// The reachable markings of `JavaNet(n)` in closed form: `(n+3)·3^(n−1)`.
fn markings(n: usize) -> usize {
    (n + 3) * 3usize.pow(n as u32 - 1)
}

impl Reach {
    /// Dead markings under the notify side condition: every thread
    /// suspended in the wait set. Exactly one exists for any `n`.
    fn dead(&self, i: usize, g: &ReachGraph) -> usize {
        let net = &self.nets[i].1;
        g.markings()
            .iter()
            .filter(|m| net.all_threads_stuck(m))
            .count()
    }
}

impl Workload for Reach {
    type Out = ReachGraph;
    const WORK: &'static str = "states_per_s";
    const WORK_UNIT: &'static str = "markings (closed-form count)";
    const SINGLE_THREADED: bool = false;

    fn setup(seed: u64, _root: &Path, traced: bool) -> Result<Reach, String> {
        let nets = LADDER
            .iter()
            .map(|&(n, _)| (n, span_if(traced, "petri.net_build", || JavaNet::new(n))))
            .collect();
        Ok(Reach { nets, seed })
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (n, net) in &self.nets {
            h.add(format!("{n}{:?}", net.net()).as_bytes());
        }
        for p in 0..4 {
            h.add(format!("{:?}", self.order(p)).as_bytes());
        }
        h.finish()
    }

    /// The two smallest nets.
    fn warm_up(&self) {
        for i in 0..2 {
            std::hint::black_box(self.run(i));
        }
    }

    fn items(&self) -> usize {
        self.nets.len()
    }

    /// A fresh seeded shuffle of every run of the pass, so the runs of
    /// one net spread over the whole measured time.
    fn order(&self, pass: u64) -> Vec<usize> {
        let mut v: Vec<usize> = LADDER
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, runs))| std::iter::repeat_n(i, runs))
            .collect();
        Rng::new(self.seed.wrapping_mul(0x2545_f491).wrapping_add(pass)).shuffle(&mut v);
        v
    }

    /// The median run. The two default workers block on shared locks for
    /// a third of the time, and how long their wake-ups take on a shared
    /// host spreads one net's runs by a third within a run; the fastest
    /// of them moved more between runs than the median did.
    fn item_time(samples: &[f64]) -> f64 {
        median(samples)
    }

    fn label(&self, i: usize) -> String {
        format!("JavaNet({})", self.nets[i].0)
    }

    fn run(&self, i: usize) -> ReachGraph {
        ReachGraph::explore(self.nets[i].1.net(), ReachLimits::default())
    }

    fn traced(&self, i: usize) -> ReachGraph {
        let g = span("item.reach", || {
            span("petri.reach", || {
                ReachGraph::explore(self.nets[i].1.net(), ReachLimits::default())
            })
        });
        count("petri.states", g.stats().states as f64);
        count("petri.edges", g.stats().edges as f64);
        count("petri.dead_states", self.dead(i, &g) as f64);
        g
    }

    fn same(&self, a: &ReachGraph, b: &ReachGraph) -> bool {
        a.stats() == b.stats() && a.markings() == b.markings()
    }

    fn verify(&self, i: usize, g: &ReachGraph) -> Verdict {
        let (n, stats) = (self.nets[i].0, g.stats());
        let want = markings(n);
        let dead = self.dead(i, g);
        let ok = ensure(stats.states == want && dead == 1, || {
            format!(
                "{} markings and {dead} dead, want {want} and 1",
                stats.states
            )
        });
        Verdict {
            ok,
            work: want as f64,
            decided: Some(stats.truncated.is_none()),
        }
    }
}
