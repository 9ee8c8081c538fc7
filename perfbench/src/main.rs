//! The jcc benchmark: one command, four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lint|mutation|explore|reach> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up several
//! times (the median is `setup_s`), then runs a closed loop — one caller,
//! the next item only after the previous verdict — in whole passes over
//! its items until `--seconds` have passed. Every verdict is checked
//! against a known answer the program did not produce. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! With `--trace 1` every item runs twice, alternating order: once
//! through the program's top-level call and once through this
//! benchmark's mirror of that call, which wraps each layer's public
//! function in a span. The two results must be equal; the per-layer
//! metrics come from the mirror's spans and the tracing overhead from the
//! pair. Spans and per-item rows are written under `perfbench/out/`.

mod explore;
mod java;
mod lint;
mod mutation;
mod reach;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jcc_core::petri::ReachLimits;
use jcc_core::pipeline::MutationStudyConfig;

use util::{median, quantile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The outcome of checking one verdict against its known answer.
pub struct Verdict {
    /// `Err` names what was wrong.
    pub ok: Result<(), String>,
    /// Units of work the item verified (lines, mutants or states).
    pub work: f64,
    /// Whether the verdict is exhaustive, where the workload can tell.
    pub decided: Option<bool>,
}

impl Verdict {
    pub fn pass(work: f64) -> Verdict {
        Verdict {
            ok: Ok(()),
            work,
            decided: None,
        }
    }

    pub fn fail(why: impl Into<String>) -> Verdict {
        Verdict {
            ok: Err(why.into()),
            work: 0.0,
            decided: None,
        }
    }
}

/// Check `cond`, or fail with `why`.
pub fn ensure(cond: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(why())
    }
}

/// One workload: seeded inputs, the top-level call per item, its traced
/// mirror and the known answers.
pub trait Workload: Sized {
    type Out;
    /// The workload's own name for `work_per_s`.
    const WORK: &'static str;
    /// What one unit of work is.
    const WORK_UNIT: &'static str;
    /// True when every call runs on the calling thread alone. Such a
    /// workload runs each pass on the next allowed CPU in turn: on a shared
    /// host one CPU can be a sixth slower than another for minutes, and a
    /// thread the scheduler leaves on one CPU makes whole runs fast or slow.
    const SINGLE_THREADED: bool;

    /// Generate the inputs from `seed` and prepare them. With `traced`,
    /// preparation runs through the mirrored calls so it records spans.
    fn setup(seed: u64, root: &Path, traced: bool) -> Result<Self, String>;
    /// FNV-1a of the generated inputs.
    fn fingerprint(&self) -> u64;
    /// Untimed first item(s), part of set-up.
    fn warm_up(&self);
    fn items(&self) -> usize;
    /// Item order of one pass; an item may appear more than once.
    fn order(&self, _pass: u64) -> Vec<usize> {
        (0..self.items()).collect()
    }
    /// An item's time to verdict from its times over the run: the best
    /// by default.
    fn item_time(samples: &[f64]) -> f64 {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
    fn label(&self, i: usize) -> String;
    /// The row an item's figures are folded into in the per-item table.
    fn bucket(&self, i: usize) -> String {
        self.label(i)
    }
    /// The program's top-level call for item `i`.
    fn run(&self, i: usize) -> Self::Out;
    /// The benchmark's span-recording mirror of [`Workload::run`].
    fn traced(&self, i: usize) -> Self::Out;
    /// Whether the mirror reproduced the top-level call's result.
    fn same(&self, a: &Self::Out, b: &Self::Out) -> bool;
    /// Check one verdict against its known answer.
    fn verify(&self, i: usize, out: &Self::Out) -> Verdict;
    /// Checks made once per distinct item after the timed loop, outside
    /// the measured time (for verdicts the top-level call does not expose).
    fn post_check(&self, _i: usize) -> Verdict {
        Verdict::pass(0.0)
    }
    /// Lines printed with the result (known-answer tables, tallies).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <lint|mutation|explore|reach> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The repository root: the package sits one level below it.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package directory has a parent")
        .to_path_buf();
    let result = match args.workload.as_str() {
        "lint" => drive::<lint::Lint>(&args, &root, process_start),
        "mutation" => drive::<mutation::Mutation>(&args, &root, process_start),
        "explore" => drive::<explore::Explore>(&args, &root, process_start),
        "reach" => drive::<reach::Reach>(&args, &root, process_start),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Figures of one traced attempt, folded per bucket.
#[derive(Default)]
struct Row {
    n: u64,
    /// The outer mirrored call: the time to verdict under tracing.
    traced_ms: f64,
    untraced_ms: f64,
    layers_ms: BTreeMap<String, f64>,
}

const LAYERS: [&str; 9] = [
    "javasrc",
    "model",
    "analyze",
    "cofg",
    "testgen",
    "vm",
    "detect",
    "petri",
    "components",
];

fn drive<W: Workload>(args: &Args, root: &Path, process_start: Instant) -> Result<(), String> {
    // ---- set-up, several times: identical inputs, median time ----
    let mut setup_times = Vec::new();
    let mut fingerprints = Vec::new();
    let mut workload = None;
    let home = util::CpuMask::current().filter(|_| W::SINGLE_THREADED);
    let cpus = home.map(|m| m.cpus()).unwrap_or_default();
    let pin = |k: usize| {
        if !cpus.is_empty() {
            util::CpuMask::only(cpus[k % cpus.len()]).apply();
        }
    };
    for rep in 0..SETUP_REPS {
        pin(rep);
        trace::set_item(0);
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let w = W::setup(args.seed, root, args.trace)?;
        w.warm_up();
        setup_times.push(t0.elapsed().as_secs_f64());
        fingerprints.push(w.fingerprint());
        workload = Some(w);
    }
    let owned = workload.expect("at least one set-up");
    let w = &owned;
    if fingerprints.windows(2).any(|p| p[0] != p[1]) {
        return Err(format!(
            "inputs differ between set-ups from one seed: {fingerprints:x?}"
        ));
    }
    let setup_s = median(&setup_times);

    // ---- the timed closed loop, in whole passes ----
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut item_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut work = 0.0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut decided_items = 0u64;
    let mut decidable_items = 0u64;
    let mut attempts_per_item = vec![0u64; w.items()];
    let mut failures: BTreeMap<String, String> = BTreeMap::new();
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    let mut pairs: Vec<(u32, String, f64)> = Vec::new(); // (item tag, bucket, untraced ms)
    let mut passes = 0u64;
    // Per item: its verified work and its time in every pass.
    let mut per_item: Vec<(f64, Vec<f64>)> = vec![(0.0, Vec::new()); w.items()];
    // Peak resident set of each pass. The whole run's peak swings by a
    // third between runs with where the two default workers' allocations
    // happen to overlap; the median over passes repeats.
    let mut pass_peaks = Vec::new();
    while passes == 0 || started.elapsed() < budget {
        pin(passes as usize);
        let reset = util::reset_peak_rss();
        for i in w.order(passes) {
            attempted += 1;
            attempts_per_item[i] += 1;
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.run(i)));
            let dt = t.elapsed().as_secs_f64();
            let Ok(out) = out else {
                failed += 1;
                failures.insert(w.label(i), "panicked".into());
                continue;
            };
            let mut verdict = w.verify(i, &out);
            if args.trace {
                let tag = attempted as u32;
                trace::set_item(tag);
                // Alternate which side runs first, pass by pass. At most
                // two results are alive at once (a reach graph is large).
                let mirrored = catch_unwind(AssertUnwindSafe(move || {
                    let m = w.traced(i);
                    let agree = w.same(&out, &m);
                    if passes.is_multiple_of(2) {
                        return (agree, dt);
                    }
                    drop(out);
                    let t = Instant::now();
                    let again = w.run(i);
                    let untraced = t.elapsed().as_secs_f64();
                    (agree && w.same(&again, &m), untraced)
                }));
                match mirrored {
                    Ok((agree, untraced_s)) => {
                        if !agree {
                            verdict =
                                Verdict::fail("traced mirror disagrees with the top-level call");
                        }
                        pairs.push((tag, w.bucket(i), untraced_s * 1e3));
                        let row = rows.entry(w.bucket(i)).or_default();
                        row.n += 1;
                        row.untraced_ms += untraced_s * 1e3;
                    }
                    Err(_) => verdict = Verdict::fail("traced mirror panicked"),
                }
                trace::set_item(0);
            }
            item_ms.push(dt * 1e3);
            busy_s += dt;
            if let Some(d) = verdict.decided {
                decidable_items += 1;
                decided_items += u64::from(d);
            }
            match verdict.ok {
                Ok(()) => {
                    work += verdict.work;
                    per_item[i].0 = verdict.work;
                    per_item[i].1.push(dt);
                }
                Err(why) => {
                    failed += 1;
                    failures.entry(w.label(i)).or_insert(why);
                }
            }
        }
        if reset {
            pass_peaks.push(util::status_mib("VmHWM:"));
        }
        passes += 1;
    }
    if let Some(m) = home {
        m.apply();
    }

    // ---- once-per-item checks outside the measured time ----
    for (i, &n) in attempts_per_item.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let v = catch_unwind(AssertUnwindSafe(|| w.post_check(i)))
            .unwrap_or_else(|_| Verdict::fail("post-check panicked"));
        if let Some(d) = v.decided {
            decidable_items += n;
            decided_items += if d { n } else { 0 };
        }
        if let Err(why) = v.ok {
            failed += n;
            failures.entry(w.label(i)).or_insert(why);
        }
    }
    let failed = failed.min(attempted);

    // ---- report ----
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env cores={cores} reach_workers={} mutation_workers={} profile={} commit={} source_fnv={:016x}",
        ReachLimits::default().parallelism.threads,
        MutationStudyConfig::default().parallelism.threads,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        util::commit(root),
        util::source_fingerprint(root),
    );
    println!(
        "inputs fingerprint={:016x} items_per_pass={} passes={passes} (identical over {SETUP_REPS} set-ups)",
        fingerprints[0],
        w.items()
    );
    for note in w.notes() {
        println!("{note}");
    }
    for (item, why) in &failures {
        println!("FAILED {item}: {why}");
    }

    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    // Each item's time to verdict over the run's passes, by default the
    // best: on a shared host the machine's speed drifts by a fifth over
    // seconds to minutes, and for `lint` and `explore` the best of several
    // passes is the figure that repeats.
    let timed: Vec<(f64, f64)> = per_item
        .iter()
        .filter(|(_, t)| !t.is_empty())
        .map(|(wi, ti)| (*wi, W::item_time(ti)))
        .collect();
    let (item_work, item_time) = timed
        .iter()
        .fold((0.0, 0.0), |(w, t), (wi, ti)| (w + wi, t + ti));
    let work_per_s = item_work / item_time;
    let times_ms: Vec<f64> = timed.iter().map(|(_, t)| t * 1e3).collect();
    let p50 = median(&times_ms);
    // Where the kernel refuses the reset, the whole run's peak.
    let rss = if pass_peaks.len() == passes as usize {
        median(&pass_peaks)
    } else {
        util::status_mib("VmHWM:")
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        println!("metric setup_s = {setup_s:.6} s (median of {SETUP_REPS}: {setup_times:.4?})");
        println!(
            "metric {} = {work_per_s:.3} 1/s ({item_work:.0} {} per pass over {item_time:.3} s of item times; {:.3} 1/s over all {passes} passes)",
            W::WORK,
            W::WORK_UNIT,
            work / busy_s
        );
        println!(
            "metric item_p50_ms = {p50:.4} ms (over {} items' times over {passes} passes; {:.4} ms over all {} samples)",
            times_ms.len(),
            median(&item_ms),
            item_ms.len()
        );
        let beyond_p99 = times_ms.len() as f64 * 0.01;
        if beyond_p99 >= 10.0 {
            println!(
                "metric item_p99_ms = {:.4} ms ({} items, {beyond_p99:.0} beyond p99; {:.4} ms over all samples)",
                quantile(&times_ms, 0.99),
                times_ms.len(),
                quantile(&item_ms, 0.99)
            );
        }
        println!("metric peak_rss_mib = {rss:.2} MiB (median of per-pass peaks {pass_peaks:.2?})");
        println!("metric failed_ratio = {failed_ratio:.6} ({failed}/{attempted})");
        if decidable_items > 0 {
            println!(
                "metric decided_ratio = {:.6} ({decided_items}/{decidable_items})",
                decided_items as f64 / decidable_items as f64
            );
        }
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("work_per_s".into(), work_per_s, "1/s"));
        metrics.push(("item_p50_ms".into(), p50, "ms"));
        metrics.push(("peak_rss_mib".into(), rss, "MiB"));
    } else {
        metrics = per_layer(passes, &pairs, &mut rows, root, args)?;
        for (name, v, unit) in &metrics {
            println!("metric {name} = {v:.6} {unit}");
        }
    }

    let mut json = String::new();
    write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    )
    .expect("write to string");
    for (k, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        if k > 0 {
            json.push_str(", ");
        }
        write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            .expect("write to string");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Fold the recorded spans into the per-layer metrics, and write the
/// spans and the per-item rows under `perfbench/out/`.
fn per_layer(
    passes: u64,
    pairs: &[(u32, String, f64)],
    rows: &mut BTreeMap<String, Row>,
    root: &Path,
    args: &Args,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let (spans, counts) = trace::drain();
    let selfs = trace::self_times(&spans);
    let passes_f = passes as f64;
    let setups = SETUP_REPS as f64;

    // Seconds per set-up plus per pass, by span name. Outer calls
    // (`core.*`) count inclusive time; layer spans count self time.
    let mut secs: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &spans {
        let ns = if trace::is_layer(s.name) {
            selfs[&s.id]
        } else {
            s.dur_ns()
        };
        let per = if s.item == 0 { setups } else { passes_f };
        *secs.entry(s.name).or_default() += ns as f64 * 1e-9 / per;
    }

    // Unattributed share: the part of each item's outer span that no
    // layer span covers, summed over items.
    let mut by_item: BTreeMap<u32, Vec<&trace::SpanRec>> = BTreeMap::new();
    for s in &spans {
        if s.item != 0 {
            by_item.entry(s.item).or_default().push(s);
        }
    }
    let (mut outer_ns, mut uncovered_ns) = (0u64, 0u64);
    let mut paired = (0.0f64, 0.0f64); // (outer traced, untraced) ms
    let untraced: BTreeMap<u32, &(u32, String, f64)> = pairs.iter().map(|p| (p.0, p)).collect();
    for (item, list) in &by_item {
        let Some(outer) = list
            .iter()
            .filter(|s| s.parent == 0 && !trace::is_layer(s.name))
            .max_by_key(|s| s.dur_ns())
        else {
            continue;
        };
        let covered = trace::covered(
            list.iter()
                .filter(|s| trace::is_layer(s.name))
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
            outer.start_ns,
            outer.end_ns,
        );
        outer_ns += outer.dur_ns();
        uncovered_ns += outer.dur_ns() - covered;
        if let Some((_, bucket, untraced_ms)) = untraced.get(item) {
            paired.0 += outer.dur_ns() as f64 * 1e-6;
            paired.1 += untraced_ms;
            let row = rows.entry(bucket.clone()).or_default();
            row.traced_ms += outer.dur_ns() as f64 * 1e-6;
            for s in list.iter().filter(|s| trace::is_layer(s.name)) {
                *row.layers_ms
                    .entry(trace::layer_of(s.name).to_string())
                    .or_default() += selfs[&s.id] as f64 * 1e-6;
            }
        }
    }

    let get = |k: &str| secs.get(k).copied().unwrap_or(0.0);
    let cnt = |k: &'static str| {
        counts.get(&(k, true)).copied().unwrap_or(0.0) / setups
            + counts.get(&(k, false)).copied().unwrap_or(0.0) / passes_f
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut s = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    s("javasrc.lex_s", get("javasrc.lex"), "s");
    s("javasrc.parse_s", get("javasrc.parse"), "s");
    s("javasrc.lower_s", get("javasrc.lower"), "s");
    s("javasrc.render_s", get("javasrc.render"), "s");
    s(
        "javasrc.tokens_per_s",
        ratio(cnt("javasrc.tokens"), get("javasrc.lex")),
        "1/s",
    );
    s("javasrc.front_diags", cnt("javasrc.front_diags"), "count");
    s("model.validate_s", get("model.validate"), "s");
    s("model.mutate_s", get("model.mutate"), "s");
    s("model.mutants", cnt("model.mutants"), "count");
    s("analyze.analyze_s", get("analyze.analyze"), "s");
    s("analyze.diagnostics", cnt("analyze.diagnostics"), "count");
    s("cofg.build_s", get("cofg.build"), "s");
    s("cofg.arcs", cnt("cofg.arcs"), "count");
    s("cofg.apply_trace_s", get("cofg.apply_trace"), "s");
    s("testgen.greedy_suite_s", get("testgen.greedy_suite"), "s");
    s("testgen.random_suite_s", get("testgen.random_suite"), "s");
    s(
        "testgen.suite_scenarios",
        cnt("testgen.suite_scenarios"),
        "count",
    );
    s("testgen.enumerate_s", get("testgen.enumerate"), "s");
    s(
        "testgen.enumerate_calls",
        cnt("testgen.enumerate_calls"),
        "count",
    );
    s(
        "testgen.enumerate_complete_ratio",
        ratio(
            cnt("testgen.enumerate_complete"),
            cnt("testgen.enumerate_calls"),
        ),
        "ratio",
    );
    s("testgen.signatures", cnt("testgen.signatures"), "count");
    s("vm.compile_s", get("vm.compile"), "s");
    s("vm.compile_calls", cnt("vm.compile_calls"), "count");
    s("vm.run_s", get("vm.run"), "s");
    s("vm.run_calls", cnt("vm.run_calls"), "count");
    s("vm.explore_s", get("vm.explore"), "s");
    s("vm.states", cnt("vm.states"), "count");
    s("vm.transitions", cnt("vm.transitions"), "count");
    s(
        "vm.states_per_s",
        ratio(cnt("vm.states"), get("vm.explore")),
        "1/s",
    );
    s("vm.timeline_s", get("vm.timeline"), "s");
    s("detect.classify_s", get("detect.classify"), "s");
    s("detect.trace_detect_s", get("detect.trace_detect"), "s");
    s("detect.findings", cnt("detect.findings"), "count");
    s("petri.net_build_s", get("petri.net_build"), "s");
    s("petri.reach_s", get("petri.reach"), "s");
    s("petri.states", cnt("petri.states"), "count");
    s("petri.edges", cnt("petri.edges"), "count");
    s("petri.dead_states", cnt("petri.dead_states"), "count");
    s(
        "petri.states_per_s",
        ratio(cnt("petri.states"), get("petri.reach")),
        "1/s",
    );
    let workers = if cnt("petri.states") > 0.0 {
        ReachLimits::default().parallelism.threads as f64
    } else {
        0.0
    };
    s("petri.workers", workers, "count");
    s("core.pipeline_new_s", get("core.pipeline_new"), "s");
    s("core.mutation_study_s", get("core.mutation_study"), "s");
    s("core.explore_evidence_s", get("core.explore_evidence"), "s");
    s(
        "core.unattributed_pct",
        100.0 * ratio(uncovered_ns as f64, outer_ns as f64),
        "%",
    );
    s("components.generate_s", get("components.generate"), "s");
    s(
        "trace.overhead_pct",
        100.0 * ratio(paired.0 - paired.1, paired.1),
        "%",
    );

    // ---- write spans and per-item rows ----
    let out_dir = root.join("perfbench").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut text = String::from("id\tparent\tname\titem\tthread\tstart_ns\tend_ns\tself_ns\n");
    for s in &spans {
        writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.item, s.thread, s.start_ns, s.end_ns, selfs[&s.id]
        )
        .expect("write to string");
    }
    let spans_path = out_dir.join(format!("{stem}-spans.tsv"));
    std::fs::write(&spans_path, text)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let mut text = String::from("bucket\tn\ttraced_ms\tuntraced_ms");
    for l in LAYERS {
        write!(text, "\t{l}_self_ms").expect("write to string");
    }
    text.push('\n');
    for (bucket, r) in rows.iter() {
        let n = r.n.max(1) as f64;
        write!(
            text,
            "{bucket}\t{}\t{:.4}\t{:.4}",
            r.n,
            r.traced_ms / n,
            r.untraced_ms / n
        )
        .expect("write to string");
        for l in LAYERS {
            write!(
                text,
                "\t{:.4}",
                r.layers_ms.get(l).copied().unwrap_or(0.0) / n
            )
            .expect("write to string");
        }
        text.push('\n');
    }
    let rows_path = out_dir.join(format!("{stem}-items.tsv"));
    std::fs::write(&rows_path, &text).map_err(|e| format!("write {}: {e}", rows_path.display()))?;
    println!(
        "trace spans={} passes={passes} rows={} written to {} and {}",
        spans.len(),
        rows.len(),
        spans_path
            .strip_prefix(root)
            .unwrap_or(&spans_path)
            .display(),
        rows_path.strip_prefix(root).unwrap_or(&rows_path).display()
    );
    print!("{text}");
    Ok(m)
}
