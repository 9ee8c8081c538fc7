//! `lint`: `jcc check`-style in-memory linting of a seeded source tree.
//!
//! The tree holds `components::gen` monitors rendered as Java over a size
//! ladder, plus class-renamed copies of every `tests/java_corpus` file,
//! shuffled by the seed. One item is one file through
//! [`check_source`].

use std::path::Path;

use jcc_core::analyze::{CheckId, Severity, SrcLoc};
use jcc_core::components::gen::{self, GenConfig};
use jcc_core::javasrc::check::FileOutcome;
use jcc_core::javasrc::diag::{FrontDiag, Phase};
use jcc_core::javasrc::render::{render_analyzer_diag, render_front_diag};
use jcc_core::javasrc::{
    check_source, lexer, lower_class, parse, CheckOptions, LowerMap, SourceMap, Span,
};
use jcc_core::model::validate::{validate, ValidationError};

use crate::trace::{count, span, span_if};
use crate::util::{Fnv, Rng};
use crate::{ensure, java, Verdict, Workload};

/// Generator sizes: from about 30 lines (size 1) to several hundred.
const SIZES: [usize; 8] = [1, 2, 3, 4, 6, 8, 12, 16];
/// Generated files per size.
const FILES_PER_SIZE: usize = 250;
/// Renamed copies of each of the 16 corpus files.
const CORPUS_COPIES: usize = 40;

/// The known answer for one file.
enum Expect {
    /// A generated monitor: no High finding, exactly one Medium
    /// missed-notification per wait site, nothing else at Medium or above.
    Gen { wait_sites: usize },
    /// A corpus copy: pinned per-class counts, exit code and, for the
    /// seeded-buggy files, the seeded check at its documented line plus
    /// the lines prepended to the copy.
    Corpus {
        class: String,
        counts: (usize, usize, usize),
        exit: i32,
        hit: Option<(String, u32)>,
    },
}

struct File {
    name: String,
    src: String,
    bucket: String,
    loc: usize,
    expect: Expect,
}

pub struct Lint {
    files: Vec<File>,
    opts: CheckOptions,
}

/// One row of `data/lint_corpus.tsv`.
struct CorpusRow {
    dir: String,
    class: String,
    counts: (usize, usize, usize),
    exit: i32,
    hit: Option<(String, u32)>,
}

fn corpus_table(root: &Path) -> Result<Vec<CorpusRow>, String> {
    let path = root.join("perfbench/data/lint_corpus.tsv");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |k: usize| -> Result<usize, String> {
            f.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad column {k} in `{line}`"))
        };
        let hit = match (f.get(6), f.get(7)) {
            (Some(&c), Some(&l)) if c != "-" => Some((
                c.to_string(),
                l.parse().map_err(|e| format!("line in `{line}`: {e}"))?,
            )),
            _ => None,
        };
        rows.push(CorpusRow {
            dir: f[0].to_string(),
            class: f[1].to_string(),
            counts: (num(2)?, num(3)?, num(4)?),
            exit: num(5)? as i32,
            hit,
        });
    }
    Ok(rows)
}

impl Workload for Lint {
    type Out = FileOutcome;
    const WORK: &'static str = "loc_per_s";
    const WORK_UNIT: &'static str = "lines";
    const SINGLE_THREADED: bool = true;

    fn setup(seed: u64, root: &Path, traced: bool) -> Result<Lint, String> {
        let mut rng = Rng::new(seed);
        let mut files = Vec::new();
        for &n in &SIZES {
            for k in 0..FILES_PER_SIZE {
                let cfg = GenConfig::sized(n, rng.next_u64());
                let c = span_if(traced, "components.generate", || gen::generate(&cfg));
                let class = format!("{}N{k}", cfg.class_name());
                let header = format!("generated: size {n}, seed {:#x}", cfg.seed);
                let src = java::render(&c, &class, &header);
                files.push(File {
                    name: format!("gen/{class}.java"),
                    loc: java::loc(&src),
                    src,
                    bucket: format!("gen-size-{n:02}"),
                    expect: Expect::Gen {
                        wait_sites: cfg.wait_sites.max(cfg.guards),
                    },
                });
            }
        }
        for row in corpus_table(root)? {
            let path = root
                .join("tests/java_corpus")
                .join(&row.dir)
                .join(format!("{}.java", row.class));
            let original = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            for k in 0..CORPUS_COPIES {
                let class = format!("{}Copy{k}", row.class);
                let shift = rng.below(4);
                let mut src: String = (0..shift)
                    .map(|j| format!("// copy {k}, line {j}\n"))
                    .collect();
                src.push_str(&java::rename_word(&original, &row.class, &class));
                files.push(File {
                    name: format!("{}/{class}.java", row.dir),
                    loc: java::loc(&src),
                    src,
                    bucket: format!("corpus-{}", row.dir),
                    expect: Expect::Corpus {
                        class,
                        counts: row.counts,
                        exit: row.exit,
                        hit: row.hit.as_ref().map(|(c, l)| (c.clone(), l + shift as u32)),
                    },
                });
            }
        }
        rng.shuffle(&mut files);
        Ok(Lint {
            files,
            opts: CheckOptions::default(),
        })
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for f in &self.files {
            h.add(f.name.as_bytes()).add(f.src.as_bytes());
        }
        h.finish()
    }

    fn warm_up(&self) {
        for f in self.files.iter().take(64) {
            std::hint::black_box(check_source(&f.name, &f.src, &self.opts));
        }
    }

    fn items(&self) -> usize {
        self.files.len()
    }

    fn label(&self, i: usize) -> String {
        self.files[i].name.clone()
    }

    fn bucket(&self, i: usize) -> String {
        self.files[i].bucket.clone()
    }

    fn run(&self, i: usize) -> FileOutcome {
        let f = &self.files[i];
        check_source(&f.name, &f.src, &self.opts)
    }

    fn traced(&self, i: usize) -> FileOutcome {
        let f = &self.files[i];
        let out = span("item.check_source", || {
            mirror_check_source(&f.name, &f.src, &self.opts)
        });
        // `check_source` lexes inside `parse`; the lexer alone is timed
        // by a separate call on the same file, outside the mirrored call.
        let (tokens, _) = span("javasrc.lex", || lexer::lex(&f.src));
        count("javasrc.tokens", tokens.len() as f64);
        out
    }

    fn same(&self, a: &FileOutcome, b: &FileOutcome) -> bool {
        a.file == b.file
            && a.output == b.output
            && a.front_errors == b.front_errors
            && a.denied_findings == b.denied_findings
            && a.reports == b.reports
            && a.loc == b.loc
    }

    fn verify(&self, i: usize, out: &FileOutcome) -> Verdict {
        let f = &self.files[i];
        let ok = verify_file(f, out);
        Verdict {
            ok,
            work: f.loc as f64,
            decided: None,
        }
    }

    fn notes(&self) -> Vec<String> {
        let gen = self
            .files
            .iter()
            .filter(|f| matches!(f.expect, Expect::Gen { .. }))
            .count();
        let loc: usize = self.files.iter().map(|f| f.loc).sum();
        vec![format!(
            "tree files={} generated={gen} corpus_copies={} loc_per_pass={loc}",
            self.files.len(),
            self.files.len() - gen
        )]
    }
}

fn verify_file(f: &File, out: &FileOutcome) -> Result<(), String> {
    ensure(out.loc == f.loc, || format!("loc {} != {}", out.loc, f.loc))?;
    let all = || out.reports.iter().flat_map(|r| r.diagnostics.iter());
    match &f.expect {
        Expect::Gen { wait_sites } => {
            ensure(out.front_errors == 0, || {
                format!("front errors:\n{}", out.output)
            })?;
            ensure(out.reports.len() == 1, || "expected one class".into())?;
            let high = all().filter(|d| d.severity == Severity::High).count();
            let missed = all()
                .filter(|d| {
                    d.severity == Severity::Medium && d.check == CheckId::MissedNotification
                })
                .count();
            let other_medium = all().filter(|d| d.severity == Severity::Medium).count() - missed;
            ensure(
                high == 0 && missed == *wait_sites && other_medium == 0,
                || {
                    format!("want 0 high, {wait_sites} missed-notification, got {high}/{missed}/{other_medium}")
                },
            )
        }
        Expect::Corpus {
            class,
            counts,
            exit,
            hit,
        } => {
            let report = out
                .reports
                .iter()
                .find(|r| &r.component == class)
                .ok_or_else(|| format!("no report for class {class}"))?;
            let got = (
                report.count(Severity::High),
                report.count(Severity::Medium),
                report.count(Severity::Low),
            );
            ensure(got == *counts, || format!("counts {got:?} != {counts:?}"))?;
            let code = if out.front_errors > 0 {
                2
            } else if out.denied_findings > 0 {
                1
            } else {
                0
            };
            ensure(code == *exit, || format!("exit {code} != {exit}"))?;
            if let Some((check, line)) = hit {
                let d = all()
                    .find(|d| format!("{:?}", d.check) == *check)
                    .ok_or_else(|| format!("{check} missing"))?;
                let at = d.src.as_ref().map(|s| s.line);
                ensure(at == Some(*line), || {
                    format!("{check} at {at:?}, want line {line}")
                })?;
            }
            Ok(())
        }
    }
}

/// `javasrc::check_source`, call for call, with each layer's public
/// function in a span.
fn mirror_check_source(file: &str, src: &str, opts: &CheckOptions) -> FileOutcome {
    let sm = SourceMap::new(file, src);
    let (unit, mut front) = span("javasrc.parse", || parse(src));
    let mut reports = Vec::new();
    for class in &unit.classes {
        let mut lowered = span("javasrc.lower", || lower_class(class));
        front.append(&mut lowered.diags);
        let errors = span("model.validate", || validate(&lowered.component));
        front.extend(fatal_validation_errors(errors, &lowered.map));
        let mut report = span("analyze.analyze", || {
            jcc_core::analyze::analyze(&lowered.component)
        });
        let map = &lowered.map;
        span("analyze.attach_sources", || {
            report.attach_sources(|d| {
                let span = map.resolve(&d.method, d.path.as_ref().map(|p| p.0.as_slice()));
                let (line, col) = sm.line_col(span.lo);
                Some(SrcLoc {
                    file: file.to_string(),
                    line,
                    col,
                    span: (span.lo, span.hi),
                })
            })
        });
        count("analyze.diagnostics", report.diagnostics.len() as f64);
        reports.push(report);
    }
    front.sort_by_key(|d| (d.span, d.phase, d.message.clone()));
    count("javasrc.front_diags", front.len() as f64);
    let output = span("javasrc.render", || {
        let mut out = String::new();
        for d in &front {
            out.push_str(&render_front_diag(&sm, d));
        }
        for r in &reports {
            for d in &r.diagnostics {
                out.push_str(&render_analyzer_diag(&sm, d));
            }
        }
        out
    });
    let denied = reports.iter().map(|r| r.at_least(opts.deny).count()).sum();
    FileOutcome {
        file: file.to_string(),
        output,
        front_errors: front.len(),
        denied_findings: denied,
        reports,
        loc: sm.loc(),
    }
}

/// The check driver's mapping of validation errors to frontend errors
/// (`MonitorNotHeld` is left to the analyzer), restated because the
/// driver keeps it private.
fn fatal_validation_errors(errors: Vec<ValidationError>, map: &LowerMap) -> Vec<FrontDiag> {
    errors
        .into_iter()
        .filter(|e| !matches!(e, ValidationError::MonitorNotHeld { .. }))
        .map(|e| {
            let method = match &e {
                ValidationError::UnknownName { method, .. }
                | ValidationError::UnknownLock { method, .. }
                | ValidationError::TypeMismatch { method, .. }
                | ValidationError::ArityMismatch { method, .. }
                | ValidationError::ReturnMismatch { method, .. } => Some(method.as_str()),
                _ => None,
            };
            let span: Span = match method {
                Some(m) => map.resolve(m, None),
                None => map.class_span,
            };
            FrontDiag::new(Phase::Lower, span, e.to_string())
        })
        .collect()
}
