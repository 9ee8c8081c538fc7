//! [`BenchReporter`] — the front door for the `jcc-bench` binaries.
//!
//! Every binary starts with `BenchReporter::init("e8_statespace")` and ends
//! with `reporter.finish()`. `init` resolves the shared knob — the
//! `JCC_OBS=off|summary|trace` environment variable (default `summary`) and
//! the `--quiet` flag (suppress human output; the JSON report is still
//! written) — resets the global registry so the report covers exactly this
//! run, and starts the wall clock. `finish` snapshots everything into a
//! [`RunReport`], derives `states_per_sec` and `cores`, writes
//! `BENCH_<prefix>.json` (prefix = bin name up to the first `_`, e.g.
//! `BENCH_e8.json`), appends the JSONL trace at `trace` level, and prints
//! the summary unless quiet.

use std::path::PathBuf;
use std::time::Instant;

use crate::level::{set_level, ObsLevel};
use crate::metrics::global;
use crate::report::RunReport;
use crate::trace::{drain_trace, to_jsonl};

/// Per-binary run reporter; see the module docs.
#[derive(Debug)]
pub struct BenchReporter {
    bin: String,
    level: ObsLevel,
    quiet: bool,
    start: Instant,
    derived: Vec<(String, f64)>,
}

/// Resolve the level and quiet flag from an explicit argument list
/// (`--quiet`/`-q`, `--obs=LEVEL`) and the `JCC_OBS` variable. Flags win
/// over the environment; the default level is `summary`.
pub fn parse_knobs(args: impl IntoIterator<Item = String>) -> (ObsLevel, bool) {
    let mut level = crate::level::level_from_env();
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            other => {
                if let Some(v) = other.strip_prefix("--obs=") {
                    level = ObsLevel::parse(v);
                }
            }
        }
    }
    (level, quiet)
}

impl BenchReporter {
    /// Initialize reporting for `bin`: parse the process's knobs, set the
    /// global level, zero the global registry and trace buffer, and start
    /// the wall clock.
    pub fn init(bin: &str) -> BenchReporter {
        let (level, quiet) = parse_knobs(std::env::args().skip(1));
        Self::init_with(bin, level, quiet)
    }

    /// [`BenchReporter::init`] with explicit knobs (used by tests and by
    /// binaries that re-run themselves at a different level).
    pub fn init_with(bin: &str, level: ObsLevel, quiet: bool) -> BenchReporter {
        set_level(level);
        global().reset();
        drain_trace();
        BenchReporter {
            bin: bin.to_string(),
            level,
            quiet,
            start: Instant::now(),
            derived: Vec::new(),
        }
    }

    /// True when `--quiet` was given: the binary should print nothing
    /// except hard errors.
    pub fn quiet(&self) -> bool {
        self.quiet
    }

    /// The level this run records at.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Add a derived value to the final report.
    pub fn set_derived(&mut self, name: &str, value: f64) {
        self.derived.push((name.to_string(), value));
    }

    /// Where the report will be written: `$JCC_OBS_DIR` (or the working
    /// directory) + `BENCH_<prefix>.json`.
    pub fn report_path(&self) -> PathBuf {
        let prefix = self.bin.split('_').next().unwrap_or(&self.bin);
        let dir = std::env::var("JCC_OBS_DIR").unwrap_or_else(|_| ".".to_string());
        PathBuf::from(dir).join(format!("BENCH_{prefix}.json"))
    }

    /// Write a schedule timeline next to the run report as a Chrome Trace
    /// Event Format file (`BENCH_<prefix>.chrome_trace.json`), gated by
    /// the same knobs as everything else: a no-op returning `None` when
    /// the level is `off`. Returns the path written.
    pub fn write_chrome_trace(&self, timeline: &crate::timeline::Timeline) -> Option<PathBuf> {
        if self.level < ObsLevel::Summary {
            return None;
        }
        let path = self.report_path().with_extension("chrome_trace.json");
        match std::fs::write(&path, timeline.to_chrome_string()) {
            Ok(()) => {
                if !self.quiet {
                    println!("obs: chrome trace written to {}", path.display());
                }
                Some(path)
            }
            Err(e) => {
                eprintln!("obs: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Build the report, write the JSON file (and the JSONL trace at
    /// `trace` level), print the summary unless quiet, and return the
    /// report.
    pub fn finish(self) -> RunReport {
        let wall = self.start.elapsed().as_secs_f64();
        let reg = global();
        let mut report = RunReport::from_registry(&self.bin, self.level, wall, reg);
        // The canonical throughput figure: states discovered anywhere in
        // the run (petri reachability + VM exploration) per wall second.
        let states =
            report.counter("petri.reach.states") + report.counter("vm.explore.states");
        report.set_derived("states_per_sec", states as f64 / wall.max(1e-9));
        // The machine class every speed figure in the report came from.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        report.set_derived("cores", cores as f64);
        for (k, v) in &self.derived {
            report.set_derived(k, *v);
        }

        let path = self.report_path();
        if let Err(e) = report.write_to(&path) {
            eprintln!("obs: cannot write {}: {e}", path.display());
        }
        if self.level >= ObsLevel::Trace {
            let (records, dropped) = drain_trace();
            let trace_path = path.with_extension("trace.jsonl");
            if let Err(e) = std::fs::write(&trace_path, to_jsonl(&records)) {
                eprintln!("obs: cannot write {}: {e}", trace_path.display());
            } else if !self.quiet {
                println!(
                    "obs: wrote {} trace records to {}{}",
                    records.len(),
                    trace_path.display(),
                    if dropped > 0 {
                        format!(" ({dropped} dropped at capacity)")
                    } else {
                        String::new()
                    }
                );
            }
        }
        if !self.quiet {
            println!("{}", report.render_summary());
            println!("obs: report written to {}", path.display());
        }
        set_level(ObsLevel::Off);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Flags win regardless of env (env default covered in level.rs).
        let (level, quiet) = parse_knobs(args(&["--quiet", "--obs=off"]));
        assert_eq!(level, ObsLevel::Off);
        assert!(quiet);
        let (level, quiet) = parse_knobs(args(&["-q", "--obs=trace"]));
        assert_eq!(level, ObsLevel::Trace);
        assert!(quiet);
        let (_, quiet) = parse_knobs(args(&["positional"]));
        assert!(!quiet);
    }

    #[test]
    fn report_path_uses_bin_prefix() {
        let r = BenchReporter {
            bin: "e8_statespace".into(),
            level: ObsLevel::Off,
            quiet: true,
            start: Instant::now(),
            derived: Vec::new(),
        };
        assert!(r
            .report_path()
            .to_string_lossy()
            .ends_with("BENCH_e8.json"));
    }
}
