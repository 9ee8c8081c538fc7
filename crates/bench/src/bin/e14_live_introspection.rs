//! E14 — live-introspection overhead: the full live stack (hierarchical
//! span tree, stack-mirroring sampling profiler, progress heartbeats,
//! Prometheus exposition) on the e8 exploration workload, against the same
//! workload with the stack off.
//!
//! The claim under test: watching a run live is free enough to leave on.
//! Three interleaved rounds, best-of-three each way (the e8/e12 defence
//! against one-off scheduler noise), with both arms warmed untimed first.
//! Each round times the off arm twice, before and after the live arm; the
//! A/A gap between the two off bests is reported as the noise floor.
//! The off arm still records at `summary` level — the subtraction isolates
//! what the *live* additions (tree + mirror + sampler + heartbeat +
//! progress publication) cost on top of ordinary metrics. Acceptance: the
//! explored graph is identical in both arms, and overhead stays under the
//! 5% budget (`max_introspection_overhead_pct` in the e14 baseline).

use std::time::{Duration, Instant};

use jcc_core::obs;
use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits};

fn main() {
    let mut reporter = obs::BenchReporter::init("e14_live_introspection");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== E14: live-introspection overhead ===\n");

    let saved_level = reporter.level();
    // Both arms record at summary; only the live features differ.
    obs::set_level(obs::ObsLevel::Summary);
    obs::SpanTree::reset();
    let _worker = obs::register_thread("bench");

    // Each timed arm explores the net REPS times: on a single-core host a
    // ~10ms window is one scheduler decision wide, and a lone watcher
    // wake-up mid-window swings the subtraction by double digits. A
    // ~50ms batch amortizes the wake-ups into the steady-state figure the
    // budget is about.
    const REPS: usize = 5;
    let n = 7;
    let j = JavaNet::new(n);
    let limits = ReachLimits::default();

    // Warm BOTH arms untimed: whichever arm runs first in a cold process
    // pays allocator/cache warm-up for both (the e8 lesson).
    obs::set_span_tree(false);
    obs::set_progress(false);
    let warm_off = ReachGraph::explore(j.net(), limits);
    obs::set_span_tree(true);
    obs::set_progress(true);
    let warm_on = {
        let profiler = obs::Profiler::start(Duration::from_millis(5), 0xe14);
        let heartbeat = obs::Heartbeat::start(Duration::from_millis(10), |_| {});
        let g = ReachGraph::explore(j.net(), limits);
        heartbeat.stop();
        let _ = profiler.stop();
        g
    };
    assert_eq!(
        warm_off.stats(),
        warm_on.stats(),
        "introspection must not change the explored graph"
    );

    // OFF arm: live features disabled, no watcher threads.
    let time_off = || {
        obs::set_span_tree(false);
        obs::set_progress(false);
        let t0 = Instant::now();
        let mut g = ReachGraph::explore(j.net(), limits);
        for _ in 1..REPS {
            g = ReachGraph::explore(j.net(), limits);
        }
        (t0.elapsed().as_secs_f64(), g)
    };
    let mut best_off = f64::INFINITY;
    let mut best_off_b = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut on_wall = 0.0f64;
    let mut last_profile = None;
    for _ in 0..3 {
        let (off_secs, g_off) = time_off();
        best_off = best_off.min(off_secs);

        // ON arm: the whole stack. Profiler/heartbeat start and stop
        // outside the timed region — their *running* cost is the claim,
        // not their spawn cost — and one untimed exploration runs after
        // the spawn so the watcher threads' lazy setup (stack, TLS, first
        // sleep) finishes before the clock starts; on a single-core host
        // that setup otherwise lands inside the timed window.
        obs::set_span_tree(true);
        obs::set_progress(true);
        let seg0 = Instant::now();
        let profiler = obs::Profiler::start(Duration::from_millis(5), 0xe14);
        let heartbeat = obs::Heartbeat::start(Duration::from_millis(10), |_| {});
        let _settle = ReachGraph::explore(j.net(), limits);
        let t0 = Instant::now();
        let mut g_on = ReachGraph::explore(j.net(), limits);
        for _ in 1..REPS {
            g_on = ReachGraph::explore(j.net(), limits);
        }
        best_on = best_on.min(t0.elapsed().as_secs_f64());
        heartbeat.stop();
        last_profile = Some(profiler.stop());
        on_wall += seg0.elapsed().as_secs_f64();

        // The graph must be identical with the introspection stack on:
        // same states, edges, frontier peak — and the same dead states.
        assert_eq!(g_off.stats(), g_on.stats(), "arms must agree");
        assert_eq!(
            g_off.dead_states(),
            g_on.dead_states(),
            "dead-state sets must agree"
        );

        best_off_b = best_off_b.min(time_off().0);
    }
    obs::set_span_tree(false);
    obs::set_progress(false);

    let states = warm_off.stats().states;
    let raw_overhead_pct = (best_on - best_off) / best_off.max(1e-9) * 100.0;
    let overhead_pct = raw_overhead_pct.max(0.0);
    let noise_floor_pct =
        (best_off - best_off_b).abs() / best_off.min(best_off_b).max(1e-9) * 100.0;
    say!(
        "--- introspection overhead (petri reach N={n}, {states} states, warmed, best of 3) ---\n\
         off: {best_off:.4}s, live: {best_on:.4}s -> overhead {overhead_pct:.2}% \
         (noise floor {noise_floor_pct:.2}%, budget: < 5%)"
    );
    reporter.set_derived("introspection_overhead_pct", overhead_pct);
    reporter.set_derived("introspection_noise_floor_pct", noise_floor_pct);
    // The throughput figure the gate wants: with the live stack ON.
    reporter.set_derived(
        "states_per_sec",
        (states * REPS) as f64 / best_on.max(1e-9),
    );

    // Heartbeat / profiler activity while the live arm ran.
    let reg = obs::global();
    let beats = reg.counter("live.heartbeat.count").get();
    let samples = reg.counter("live.profiler.samples").get();
    let heartbeats_per_sec = beats as f64 / on_wall.max(1e-9);
    let samples_per_sec = samples as f64 / on_wall.max(1e-9);
    say!(
        "live activity over {on_wall:.3}s on-time: {beats} heartbeats \
         ({heartbeats_per_sec:.1}/s), {samples} profiler samples ({samples_per_sec:.1}/s)"
    );
    reporter.set_derived("heartbeats_per_sec", heartbeats_per_sec);
    reporter.set_derived("profiler_samples_per_sec", samples_per_sec);

    // --- exposition self-check -------------------------------------------
    // Serve the populated registry on an ephemeral port and fetch it back
    // curl-style: every registered counter, gauge and histogram must
    // appear in the Prometheus text (the acceptance criterion for
    // `--expose`).
    {
        let server = obs::ExposeServer::start(0).expect("bind ephemeral metrics port");
        let body = obs::fetch_metrics(server.local_addr()).expect("fetch metrics");
        let mut covered = 0usize;
        for (name, _) in reg.counter_values() {
            let n = obs::expose::sanitize_metric_name(&name);
            assert!(body.contains(&n), "counter {name} missing from exposition");
            covered += 1;
        }
        for (name, _) in reg.gauge_values() {
            let n = obs::expose::sanitize_metric_name(&name);
            assert!(body.contains(&n), "gauge {name} missing from exposition");
            covered += 1;
        }
        for (name, _) in reg.histogram_values() {
            let n = obs::expose::sanitize_metric_name(&name);
            assert!(
                body.contains(&format!("{n}_count")),
                "histogram {name} missing from exposition"
            );
            covered += 1;
        }
        server.stop();
        say!("exposition self-check: {covered} registered metrics all present in scrape");
        reporter.set_derived("exposed_metrics", covered as f64);
    }

    // --- flame-table artifact --------------------------------------------
    // The profiler's flame table plus the span tree, next to the report
    // (honoring $JCC_OBS_DIR like every bench artifact).
    if let Some(profile) = &last_profile {
        let tree = obs::SpanTree::snapshot();
        let dir = std::env::var("JCC_OBS_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::PathBuf::from(dir).join("BENCH_e14_flame.txt");
        let mut text = profile.render_flame_table();
        text.push('\n');
        text.push_str(&tree.render_ascii());
        match std::fs::write(&path, &text) {
            Ok(()) => say!("flame table written to {}", path.display()),
            Err(e) => eprintln!("obs: cannot write {}: {e}", path.display()),
        }
        if !reporter.quiet() {
            print!("\n{text}");
        }
    }

    obs::set_level(saved_level);
    reporter.finish();
}
