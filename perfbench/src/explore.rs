//! `explore`: `Pipeline::explore_evidence` on deep clean scenarios and on
//! buggy ones, each followed by the lockset and lock-order detectors on
//! the witness trace (or, with no witness, on one round-robin run).
//!
//! Items: the `components::gen` ladder at sizes 1–4 (fixed generator
//! seed, so the census can be pinned), four `model::examples` specimens,
//! and a seeded draw of corpus mutants.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use jcc_core::cofg::CoverageTracker;
use jcc_core::components::gen::{self, GenConfig};
use jcc_core::detect::classify::{classify_cycles, classify_explore, classify_races, Finding};
use jcc_core::detect::lockorder::LockOrderGraph;
use jcc_core::detect::lockset::LocksetAnalyzer;
use jcc_core::detect::normalize::from_vm_trace;
use jcc_core::model::mutate::all_mutants;
use jcc_core::model::validate::validate;
use jcc_core::model::{examples, Component};
use jcc_core::pipeline::{ArcHeat, Pipeline, ScheduleEvidence};
use jcc_core::vm::trace::apply_trace;
use jcc_core::vm::{
    explore, timeline_of_outcome, CallSpec, ExploreConfig, Scheduler, ThreadSpec, TraceEvent,
    Value, Vm,
};

use crate::mutation::mirror_pipeline_new;
use crate::trace::{count, span, span_if};
use crate::util::{Fnv, Rng};
use crate::{ensure, Verdict, Workload};

/// The E11 sweep's generator seed: the ladder's census is pinned for it.
const GEN_SEED: u64 = 2024;
/// Ladder sizes; size 5 exceeds the default 200 000-state bound.
const LADDER: [usize; 4] = [1, 2, 3, 4];

enum Known {
    /// Exhaustively clean.
    Clean,
    /// The findings must include this class.
    Has(&'static str),
    /// A mutant: exactly this class set, from the reviewed verdict file.
    Exactly(String),
}

struct Item {
    label: String,
    pipeline: Pipeline,
    scenario: Vec<ThreadSpec>,
    known: Known,
    /// Pinned unreduced census (states).
    states: usize,
}

pub struct Explore {
    items: Vec<Item>,
    config: ExploreConfig,
    seed: u64,
}

/// What one item returns: the evidence plus the detectors' findings.
pub struct Out {
    evidence: ScheduleEvidence,
    detected: Vec<Finding>,
}

fn thread(name: &str, calls: &[(&str, Option<Value>)]) -> ThreadSpec {
    ThreadSpec {
        name: name.into(),
        calls: calls
            .iter()
            .map(|(m, v)| CallSpec::new(*m, v.iter().cloned().collect()))
            .collect(),
    }
}

/// The mutant pool: every mutant of the four E5 components, each under
/// one fixed scenario on which the correct component completes.
fn pool(traced: bool) -> Vec<(String, Component, Vec<ThreadSpec>)> {
    let s = |v: &str| Some(Value::Str(v.into()));
    let i = |v: i64| Some(Value::Int(v));
    let bases: Vec<(&str, Component, Vec<ThreadSpec>)> = vec![
        (
            "ProducerConsumer",
            examples::producer_consumer(),
            vec![
                thread("c1", &[("receive", None)]),
                thread("c2", &[("receive", None)]),
                thread("p", &[("send", s("ab"))]),
            ],
        ),
        (
            "BoundedBuffer",
            examples::bounded_buffer(),
            vec![
                thread("p1", &[("put", i(1))]),
                thread("p2", &[("put", i(2))]),
                thread("c", &[("take", None), ("take", None)]),
            ],
        ),
        (
            "Semaphore",
            examples::semaphore(),
            vec![
                thread("i", &[("init", i(1))]),
                thread("a1", &[("acquire", None), ("release", None)]),
                thread("a2", &[("acquire", None), ("release", None)]),
            ],
        ),
        (
            "ReadersWriters",
            examples::readers_writers(),
            vec![
                thread("r1", &[("startRead", None), ("endRead", None)]),
                thread("w", &[("startWrite", None), ("endWrite", None)]),
                thread("r2", &[("startRead", None), ("endRead", None)]),
            ],
        ),
    ];
    let mut out = Vec::new();
    for (name, c, scenario) in bases {
        for (m, mutant) in span_if(traced, "model.mutate", || all_mutants(&c)) {
            // `Pipeline::new` rejects a mutant that fails validation (a
            // dropped `synchronized` around `wait` is caught statically),
            // so only valid mutants can reach `explore_evidence`.
            if span_if(traced, "model.validate", || validate(&mutant)).is_empty() {
                out.push((format!("{name}/{}", m.label()), mutant, scenario.clone()));
            }
        }
    }
    out
}

/// `data/explore_expect.tsv`: label → (class set, states).
fn expectations(root: &Path) -> Result<BTreeMap<String, (String, usize)>, String> {
    let path = root.join("perfbench/data/explore_expect.tsv");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let states = f
                .get(2)
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("bad row `{l}`"))?;
            Ok((f[0].to_string(), (f[1].to_string(), states)))
        })
        .collect()
}

fn classes(out: &Out) -> String {
    let set: BTreeSet<String> = out
        .evidence
        .findings
        .iter()
        .chain(&out.detected)
        .map(|f| f.class.code().to_string())
        .collect();
    if set.is_empty() {
        "clean".into()
    } else {
        set.into_iter().collect::<Vec<_>>().join(",")
    }
}

fn detect(trace: &[TraceEvent]) -> Vec<Finding> {
    let events = from_vm_trace(trace);
    let mut out = classify_races(&LocksetAnalyzer::analyze(&events));
    out.extend(classify_cycles(&LockOrderGraph::build(&events).cycles()));
    out
}

impl Workload for Explore {
    type Out = Out;
    const WORK: &'static str = "states_per_s";
    const WORK_UNIT: &'static str = "states (pinned unreduced census)";
    const SINGLE_THREADED: bool = true;

    fn setup(seed: u64, root: &Path, traced: bool) -> Result<Explore, String> {
        let expect = expectations(root)?;
        let census = |label: &str| -> Result<(String, usize), String> {
            expect
                .get(label)
                .cloned()
                .ok_or_else(|| format!("{label} is missing from explore_expect.tsv"))
        };
        let mut items = Vec::new();
        let mut add = |label: String, c: Component, scenario, known| -> Result<(), String> {
            let (_, states) = census(&label)?;
            items.push(Item {
                label,
                pipeline: mirror_pipeline_new(c, traced),
                scenario,
                known,
                states,
            });
            Ok(())
        };
        for n in LADDER {
            let cfg = GenConfig::sized(n, GEN_SEED);
            let c = span_if(traced, "components.generate", || gen::generate(&cfg));
            let scenario = gen::call_plan(&cfg)
                .iter()
                .enumerate()
                .map(|(t, calls)| ThreadSpec {
                    name: format!("t{t}"),
                    calls: calls
                        .iter()
                        .map(|m| CallSpec::new(m.clone(), vec![]))
                        .collect(),
                })
                .collect();
            add(format!("gen-size-{n}"), c, scenario, Known::Clean)?;
        }
        let pair = |a: &str, b: &str| vec![thread("t1", &[(a, None)]), thread("t2", &[(b, None)])];
        let philosophers = || {
            (0..3)
                .map(|i| thread(&format!("p{i}"), &[(["eat0", "eat1", "eat2"][i], None)]))
                .collect::<Vec<_>>()
        };
        add(
            "specimen/lock_order_deadlock".into(),
            examples::lock_order_deadlock(),
            pair("forward", "backward"),
            Known::Has("FF-T2"),
        )?;
        add(
            "specimen/dining_deadlock".into(),
            examples::dining_deadlock(),
            philosophers(),
            Known::Has("FF-T2"),
        )?;
        add(
            "specimen/dining_ordered".into(),
            examples::dining_ordered(),
            philosophers(),
            Known::Clean,
        )?;
        add(
            "specimen/racy_counter".into(),
            examples::racy_counter(),
            pair("increment", "increment"),
            Known::Has("FF-T1"),
        )?;
        for (label, c, scenario) in pool(traced) {
            let label = format!("mutant/{label}");
            let (want, _) = census(&label)?;
            add(label, c, scenario, Known::Exactly(want))?;
        }
        Ok(Explore {
            items,
            config: ExploreConfig::default(),
            seed,
        })
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for it in &self.items {
            h.add(it.label.as_bytes())
                .add(format!("{:?}{:?}", it.pipeline.component, it.scenario).as_bytes());
        }
        for p in 0..4 {
            h.add(format!("{:?}", self.order(p)).as_bytes());
        }
        h.finish()
    }

    /// Every item below 20 000 states: all but the two deepest.
    fn warm_up(&self) {
        for i in (0..self.items.len()).filter(|&i| self.items[i].states < 20_000) {
            std::hint::black_box(self.run(i));
        }
    }

    fn items(&self) -> usize {
        self.items.len()
    }

    /// A fresh seeded permutation of the items every pass.
    fn order(&self, pass: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.items.len()).collect();
        Rng::new(self.seed.wrapping_mul(0x5851_f42d).wrapping_add(pass)).shuffle(&mut v);
        v
    }

    fn label(&self, i: usize) -> String {
        self.items[i].label.clone()
    }

    fn run(&self, i: usize) -> Out {
        let it = &self.items[i];
        let evidence = it
            .pipeline
            .explore_evidence(&it.scenario, &self.config, None);
        let detected = match &evidence.witness {
            Some(w) => detect(&w.trace),
            None => detect(&it.pipeline.run(&it.scenario, Scheduler::RoundRobin).trace),
        };
        Out { evidence, detected }
    }

    fn traced(&self, i: usize) -> Out {
        let it = &self.items[i];
        span("item.explore", || {
            let evidence = span("core.explore_evidence", || {
                mirror_explore_evidence(&it.pipeline, &it.scenario, &self.config)
            });
            let trace = match &evidence.witness {
                Some(w) => w.trace.clone(),
                None => {
                    span("vm.run", || {
                        it.pipeline.run(&it.scenario, Scheduler::RoundRobin)
                    })
                    .trace
                }
            };
            let detected = span("detect.trace_detect", || detect(&trace));
            count(
                "detect.findings",
                (evidence.findings.len() + detected.len()) as f64,
            );
            Out { evidence, detected }
        })
    }

    fn same(&self, a: &Out, b: &Out) -> bool {
        format!("{:?}{:?}", a.evidence, a.detected) == format!("{:?}{:?}", b.evidence, b.detected)
    }

    fn verify(&self, i: usize, out: &Out) -> Verdict {
        let it = &self.items[i];
        let got = classes(out);
        let ok = match &it.known {
            Known::Clean => ensure(got == "clean", || format!("expected clean, got {got}")),
            Known::Has(class) => ensure(got.split(',').any(|c| c == *class), || {
                format!("expected {class}, got {got}")
            }),
            Known::Exactly(want) => ensure(&got == want, || format!("expected {want}, got {got}")),
        };
        Verdict {
            ok,
            work: it.states as f64,
            decided: None,
        }
    }

    /// The census and exhaustiveness the evidence does not expose, from
    /// one `vm::explore` of each item outside the measured time.
    fn post_check(&self, i: usize) -> Verdict {
        let it = &self.items[i];
        let r = explore(
            Vm::new(it.pipeline.compiled.clone(), it.scenario.clone()),
            &self.config,
            None,
        );
        Verdict {
            ok: ensure(r.states == it.states, || {
                format!("census {} states != pinned {}", r.states, it.states)
            }),
            work: 0.0,
            decided: Some(!r.truncated && r.depth_limited_paths == 0),
        }
    }

    fn notes(&self) -> Vec<String> {
        let states: usize = self.items.iter().map(|it| it.states).sum();
        let mut v = vec![format!(
            "scenarios={} pinned_states_per_pass={states}",
            self.items.len()
        )];
        for it in &self.items {
            v.push(format!("item {} states={}", it.label, it.states));
        }
        v
    }
}

/// `Pipeline::explore_evidence`, call for call, with each layer in a span.
fn mirror_explore_evidence(
    p: &Pipeline,
    scenario: &[ThreadSpec],
    config: &ExploreConfig,
) -> ScheduleEvidence {
    let vm = Vm::new(p.compiled.clone(), scenario.to_vec());
    let result = span("vm.explore", || explore(vm, config, None));
    count("vm.states", result.states as f64);
    count("vm.transitions", result.transitions as f64);
    let findings = span("detect.classify", || classify_explore(&result));
    let witness = result.first_witness().cloned();
    let mut timeline = None;
    let mut arc_heat = Vec::new();
    if let Some(w) = &witness {
        timeline = Some(span("vm.timeline", || {
            timeline_of_outcome(w, Some(&p.cofgs))
        }));
        let tracker = span("cofg.apply_trace", || {
            let mut tracker = CoverageTracker::new(p.cofgs.clone());
            apply_trace(&w.trace, &mut tracker);
            tracker
        });
        for method in tracker.methods() {
            let (hits, cofg) = match (tracker.arc_hits(method), tracker.cofg(method)) {
                (Some(h), Some(g)) => (h, g),
                _ => continue,
            };
            for (idx, &count) in hits.iter().enumerate() {
                arc_heat.push(ArcHeat {
                    method: method.to_string(),
                    arc: cofg.describe_arc(idx),
                    hits: count,
                    directed: false,
                });
            }
        }
    }
    ScheduleEvidence {
        findings,
        witness,
        timeline,
        arc_heat,
    }
}
