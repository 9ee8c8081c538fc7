//! `mutation`: `pipeline::mutation_study` with the default configuration,
//! one component per item, each with its registered scenario space.

use std::path::Path;

use jcc_core::analyze::analyze;
use jcc_core::cofg::build_component_cofgs;
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::mutate::all_mutants;
use jcc_core::model::validate::validate;
use jcc_core::model::Component;
use jcc_core::petri::parallel_map;
use jcc_core::pipeline::{
    mutation_study, MutantResult, MutationStudyConfig, MutationStudyResult, Pipeline,
};
use jcc_core::testgen::corpus::space_for;
use jcc_core::testgen::scenario::ScenarioSpace;
use jcc_core::testgen::signature::{enumerate_signatures, run_signature};
use jcc_core::testgen::suite::{greedy_cover_suite, random_suite};
use jcc_core::vm::{compile, RunConfig, Scheduler, Vm};

use crate::trace::{adopt, count, current, span};
use crate::util::{median, Fnv, Rng};
use crate::{ensure, Verdict, Workload};

/// The components every pass scores. ReadWriteLock, Exchanger, Barrier,
/// CyclicBarrier, ThreadPool and BoundedStack take 3–13 s each with two
/// workers, longer than a run can afford to repeat; the seven below take
/// about 7 s together.
const POOL: [&str; 7] = [
    "ProducerConsumer",
    "BoundedBuffer",
    "Semaphore",
    "ReadersWriters",
    "FutureCell",
    "FairSemaphore",
    "BargingSemaphore",
];

struct Study {
    name: &'static str,
    component: Component,
    space: ScenarioSpace,
    /// Pinned `(directed detected, directed total, random detected,
    /// random total, mutants)`.
    expect: [usize; 5],
}

pub struct Mutation {
    studies: Vec<Study>,
    config: MutationStudyConfig,
    seed: u64,
}

fn scores(root: &Path) -> Result<Vec<(String, [usize; 5])>, String> {
    let path = root.join("perfbench/data/mutation_scores.tsv");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let mut v = [0usize; 5];
            for (k, slot) in v.iter_mut().enumerate() {
                *slot = f
                    .get(k + 1)
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| format!("bad row `{l}`"))?;
            }
            Ok((f[0].to_string(), v))
        })
        .collect()
}

impl Workload for Mutation {
    type Out = MutationStudyResult;
    const WORK: &'static str = "mutants_per_s";
    const WORK_UNIT: &'static str = "mutants";
    const SINGLE_THREADED: bool = false;

    fn setup(seed: u64, root: &Path, _traced: bool) -> Result<Mutation, String> {
        let pinned = scores(root)?;
        let corpus = full_corpus();
        let mut studies = Vec::new();
        for name in POOL {
            let component = corpus
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| c.clone())
                .ok_or_else(|| format!("{name} is not in the corpus"))?;
            let space = space_for(name).ok_or_else(|| format!("{name} has no scenario space"))?;
            let expect = pinned
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("{name} has no pinned score"))?;
            studies.push(Study {
                name,
                component,
                space,
                expect,
            });
        }
        Ok(Mutation {
            studies,
            config: MutationStudyConfig::default(),
            seed,
        })
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for s in &self.studies {
            h.add(format!("{:?}{:?}", s.component, s.space.templates).as_bytes());
        }
        for p in 0..4 {
            h.add(format!("{:?}", self.order(p)).as_bytes());
        }
        h.finish()
    }

    /// The two cheapest studies (Semaphore, BargingSemaphore).
    fn warm_up(&self) {
        for s in [&self.studies[2], &self.studies[6]] {
            std::hint::black_box(mutation_study(&s.component, &s.space, &self.config));
        }
    }

    fn items(&self) -> usize {
        self.studies.len()
    }

    /// A fresh seeded permutation of the pool every pass.
    fn order(&self, pass: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.studies.len()).collect();
        Rng::new(self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(pass)).shuffle(&mut v);
        v
    }

    /// The median run. Only three to five runs of a component fit in a
    /// run, and fewer when the host is slow, so the best of them rose
    /// with each lost pass; over ten runs of the same code the median
    /// spread a quarter as much (3% against 12%).
    fn item_time(samples: &[f64]) -> f64 {
        median(samples)
    }

    fn label(&self, i: usize) -> String {
        self.studies[i].name.to_string()
    }

    fn run(&self, i: usize) -> MutationStudyResult {
        let s = &self.studies[i];
        mutation_study(&s.component, &s.space, &self.config)
    }

    fn traced(&self, i: usize) -> MutationStudyResult {
        let s = &self.studies[i];
        span("core.mutation_study", || {
            mirror_mutation_study(&s.component, &s.space, &self.config)
        })
    }

    fn same(&self, a: &MutationStudyResult, b: &MutationStudyResult) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    fn verify(&self, i: usize, out: &MutationStudyResult) -> Verdict {
        let want = self.studies[i].expect;
        let (dd, dt) = out.directed_score();
        let (rd, rt) = out.random_score();
        let got = [dd, dt, rd, rt, out.mutants.len()];
        Verdict {
            ok: ensure(got == want, || format!("scores {got:?} != pinned {want:?}")),
            work: out.mutants.len() as f64,
            decided: None,
        }
    }
}

/// `Pipeline::new` itself, or with `traced` the same calls in the same
/// order with each layer in a span.
pub fn mirror_pipeline_new(component: Component, traced: bool) -> Pipeline {
    if !traced {
        return Pipeline::new(component).expect("benchmark components are valid");
    }
    span("core.pipeline_new", || {
        let errors = span("model.validate", || validate(&component));
        assert!(
            errors.is_empty(),
            "{}: invalid component: {errors:?}",
            component.name
        );
        let compiled =
            span("vm.compile", || compile(&component)).expect("validated components compile");
        let cofgs = span("cofg.build", || build_component_cofgs(&component));
        let analysis = span("analyze.analyze", || analyze(&component));
        count("vm.compile_calls", 1.0);
        count(
            "cofg.arcs",
            cofgs.iter().map(|g| g.arcs.len()).sum::<usize>() as f64,
        );
        count("analyze.diagnostics", analysis.diagnostics.len() as f64);
        Pipeline {
            component,
            compiled,
            cofgs,
            analysis,
        }
    })
}

fn enumerate(
    vm: Vm,
    limits: jcc_core::testgen::signature::EnumLimits,
) -> (
    std::collections::BTreeSet<jcc_core::testgen::signature::Signature>,
    bool,
) {
    let out = span("testgen.enumerate", || enumerate_signatures(vm, limits));
    count("testgen.enumerate_calls", 1.0);
    count("testgen.enumerate_complete", if out.1 { 0.0 } else { 1.0 });
    count("testgen.signatures", out.0.len() as f64);
    out
}

/// `pipeline::mutation_study`, call for call: the same functions in the
/// same order, the same short-circuits and the same `parallel_map` fan-out.
fn mirror_mutation_study(
    component: &Component,
    space: &ScenarioSpace,
    config: &MutationStudyConfig,
) -> MutationStudyResult {
    let pipeline = mirror_pipeline_new(component.clone(), true);
    let directed = span("testgen.greedy_suite", || {
        greedy_cover_suite(&pipeline.component, space, &config.greedy)
    });
    let random_count = config
        .random_count
        .unwrap_or(directed.scenarios.len().max(1));
    let random = span("testgen.random_suite", || {
        random_suite(&pipeline.component, space, config.random_seed, random_count)
    });
    count(
        "testgen.suite_scenarios",
        (directed.scenarios.len() + random.scenarios.len()) as f64,
    );

    let parent = current();
    let correct_sig_sets: Vec<_> = parallel_map(config.parallelism, &directed.scenarios, |s| {
        adopt(parent, || {
            enumerate(Vm::new(pipeline.compiled.clone(), s.clone()), config.limits).0
        })
    });
    let correct_random_sets: Vec<_> = parallel_map(config.parallelism, &random.scenarios, |s| {
        adopt(parent, || {
            enumerate(Vm::new(pipeline.compiled.clone(), s.clone()), config.limits)
        })
    });

    let all = span("model.mutate", || all_mutants(component));
    count("model.mutants", all.len() as f64);
    let mutants: Vec<MutantResult> =
        parallel_map(config.parallelism, &all, |(mutation, mutant)| {
            adopt(parent, || {
                let compiled = span("vm.compile", || compile(mutant));
                count("vm.compile_calls", 1.0);
                let Ok(mutant_compiled) = compiled else {
                    return MutantResult {
                        mutation: mutation.clone(),
                        detected_directed: true,
                        detected_random: true,
                    };
                };
                let detected_directed =
                    directed
                        .scenarios
                        .iter()
                        .zip(&correct_sig_sets)
                        .any(|(scenario, correct)| {
                            let (sigs, _) = enumerate(
                                Vm::new(mutant_compiled.clone(), scenario.clone()),
                                config.limits,
                            );
                            sigs != *correct
                        });
                let detected_random = random
                    .scenarios
                    .iter()
                    .zip(&correct_random_sets)
                    .enumerate()
                    .any(|(i, (scenario, (correct_set, truncated)))| {
                        if *truncated {
                            return false;
                        }
                        let mut vm = Vm::new(mutant_compiled.clone(), scenario.clone());
                        let out = span("vm.run", || {
                            vm.run(&RunConfig {
                                scheduler: Scheduler::Random(
                                    config.random_seed.wrapping_add(i as u64),
                                ),
                                max_steps: 20_000,
                            })
                        });
                        count("vm.run_calls", 1.0);
                        !correct_set.contains(&run_signature(&out))
                    });
                MutantResult {
                    mutation: mutation.clone(),
                    detected_directed,
                    detected_random,
                }
            })
        });

    MutationStudyResult {
        component: component.name.clone(),
        directed_suite_size: directed.scenarios.len(),
        directed_coverage: directed.coverage_ratio(),
        random_suite_size: random.scenarios.len(),
        random_coverage: random.coverage_ratio(),
        mutants,
    }
}
