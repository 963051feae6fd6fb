//! Repo-invariant lint: structural conventions the workspace promises but
//! the compiler cannot check, enforced as a CI gate.
//!
//! Four invariant families, reported rustc-style and failing the process
//! (for CI) when any finding survives:
//!
//! * `RI001`/`RI002` — every telemetry counter ([`Metric`]) and histogram
//!   ([`Hist`]) is actually incremented / observed by engine code, not
//!   merely declared: a declared-but-dead metric silently reports `0` and
//!   poisons dashboards. (The declaration site,
//!   `crates/telemetry/src/metrics.rs`, and the generic snapshot renderer
//!   are excluded from the search; the span layer counts as wiring.) A
//!   *retired* counter ([`RETIRED`]) is held to the opposite: it stays
//!   registered for readers outside the workspace, and no code may
//!   increment it.
//! * `RI003`/`RI004` — every bench target declared in
//!   `crates/bench/Cargo.toml` has a committed gated baseline
//!   (`baselines/BENCH_<name>.json`) and a row in `crates/bench/README.md`:
//!   a target without a baseline is not regression-gated at all. In
//!   reverse, RI003 also flags every baseline that names no declared
//!   target: a stale baseline of a deleted target would otherwise surface
//!   only as a failure of the full-timing `make bench-compare` run.
//! * `RI005` — every governed `*_with_budget` function has an ungoverned
//!   twin of the same name in the same crate. The workspace's API
//!   convention: a `_with_budget` suffix marks the governed half of a pair
//!   whose two halves both have callers outside tests; a procedure with
//!   one entry point takes `&Budget` in its signature instead, under its
//!   plain name.
//! * `RI006` — every crate root (and the umbrella root) carries
//!   `#![forbid(unsafe_code)]`.
//!
//! The scan is purely textual over the workspace sources — `std` only, no
//! parsing — which keeps it fast and dependency-free; the conventions it
//! checks are naming-based by design.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dxml::telemetry::{Hist, Metric};

/// Counters the engine no longer records, kept registered only because the
/// end-to-end benchmark package reads them: the extension-automaton memo
/// and the residual-DFA memo they counted are both gone. RI001 requires
/// that nothing increments them.
const RETIRED: [Metric; 4] = [
    Metric::ExtMemoHits,
    Metric::ExtMemoMisses,
    Metric::ResidualDfaBuilds,
    Metric::ResidualDfaHits,
];

/// One violated invariant.
struct Finding {
    code: &'static str,
    location: String,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}\n  --> {}", self.code, self.message, self.location)
    }
}

/// Collects every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                out.push((path, text));
            }
        }
    }
}

/// The bench targets declared in `crates/bench/Cargo.toml`, in file order.
fn bench_targets(manifest: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("[[") {
            in_bench = line == "[[bench]]";
        } else if in_bench {
            if let Some(name) = line.strip_prefix("name = \"").and_then(|r| r.strip_suffix('"')) {
                targets.push(name.to_string());
            }
        }
    }
    targets
}

/// The crate-level scope a source file belongs to (`crates/<name>` or the
/// umbrella root) — the unit within which a governed function must have
/// its ungoverned twin.
fn crate_scope(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("crates/{name}");
        }
    }
    "root".to_string()
}

/// Extracts `name` from every `fn name_with_budget` definition in `text`.
fn governed_fns(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (pos, _) in text.match_indices("fn ") {
        // Only definitions: `fn ` at the start of a token, not `(fn ` etc.
        if pos > 0 && !text.as_bytes()[pos - 1].is_ascii_whitespace() {
            continue;
        }
        let rest = &text[pos + 3..];
        let ident: String =
            rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if let Some(base) = ident.strip_suffix("_with_budget") {
            if !base.is_empty() {
                out.push(base.to_string());
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut findings: Vec<Finding> = Vec::new();

    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    rust_sources(&root.join("examples"), &mut sources);
    let rel = |p: &Path| {
        p.strip_prefix(&root).unwrap_or(p).to_string_lossy().replace('\\', "/")
    };

    // RI001/RI002 — every metric is wired into the engine. The declaring
    // enum and the generic snapshot/report layer don't count as wiring.
    let wiring: Vec<&(PathBuf, String)> = sources
        .iter()
        .filter(|(p, _)| {
            let r = rel(p);
            r != "crates/telemetry/src/metrics.rs" && r != "crates/telemetry/src/snapshot.rs"
        })
        .collect();
    for metric in Metric::ALL {
        let needle = format!("Metric::{metric:?}");
        if RETIRED.contains(&metric) {
            let this_file = "examples/repo_invariants.rs";
            if let Some((p, _)) =
                wiring.iter().find(|(p, text)| rel(p) != this_file && text.contains(&needle))
            {
                findings.push(Finding {
                    code: "RI001",
                    location: rel(p),
                    message: format!(
                        "retired counter `{}` is referenced outside its declaration",
                        metric.name()
                    ),
                });
            }
        } else if !wiring.iter().any(|(_, text)| text.contains(&needle)) {
            findings.push(Finding {
                code: "RI001",
                location: format!("telemetry counter `{}`", metric.name()),
                message: format!(
                    "counter `{}` is declared but never incremented by engine code",
                    metric.name()
                ),
            });
        }
    }
    for hist in Hist::ALL {
        let needle = format!("Hist::{hist:?}");
        if !wiring.iter().any(|(_, text)| text.contains(&needle)) {
            findings.push(Finding {
                code: "RI002",
                location: format!("telemetry histogram `{}`", hist.name()),
                message: format!(
                    "histogram `{}` is declared but never observed by engine code",
                    hist.name()
                ),
            });
        }
    }

    // RI003/RI004 — every bench target is baseline-gated and documented.
    let manifest = fs::read_to_string(root.join("crates/bench/Cargo.toml"))
        .expect("crates/bench/Cargo.toml is readable");
    let readme = fs::read_to_string(root.join("crates/bench/README.md")).unwrap_or_default();
    let targets = bench_targets(&manifest);
    if targets.is_empty() {
        findings.push(Finding {
            code: "RI003",
            location: "crates/bench/Cargo.toml".to_string(),
            message: "no [[bench]] targets found — the target parser is broken".to_string(),
        });
    }
    for target in &targets {
        let baseline = root.join("baselines").join(format!("BENCH_{target}.json"));
        if !baseline.is_file() {
            findings.push(Finding {
                code: "RI003",
                location: format!("bench target `{target}`"),
                message: format!(
                    "bench target `{target}` has no committed baseline \
                     (baselines/BENCH_{target}.json) — it is not regression-gated"
                ),
            });
        }
        if !readme.contains(&format!("`{target}`")) {
            findings.push(Finding {
                code: "RI004",
                location: format!("bench target `{target}`"),
                message: format!(
                    "bench target `{target}` has no row in crates/bench/README.md"
                ),
            });
        }
    }

    // RI003, reverse — every committed baseline names a declared target.
    if let Ok(entries) = fs::read_dir(root.join("baselines")) {
        let mut stale: Vec<String> = entries
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|f| {
                f.strip_prefix("BENCH_")
                    .and_then(|r| r.strip_suffix(".json"))
                    .is_some_and(|name| !targets.iter().any(|t| t == name))
            })
            .collect();
        stale.sort();
        for file in stale {
            findings.push(Finding {
                code: "RI003",
                location: format!("baselines/{file}"),
                message: format!(
                    "baseline baselines/{file} names no [[bench]] target in \
                     crates/bench/Cargo.toml — delete it or restore the target"
                ),
            });
        }
    }

    // RI005 — every governed function has an ungoverned twin in its crate.
    for (path, text) in &sources {
        let r = rel(path);
        let scope = crate_scope(&r);
        for base in governed_fns(text) {
            let twin_paren = format!("fn {base}(");
            let twin_generic = format!("fn {base}<");
            let has_twin = sources.iter().any(|(p, t)| {
                crate_scope(&rel(p)) == scope
                    && (t.contains(&twin_paren) || t.contains(&twin_generic))
            });
            if !has_twin {
                findings.push(Finding {
                    code: "RI005",
                    location: format!("{r} (fn `{base}_with_budget`)"),
                    message: format!(
                        "governed `{base}_with_budget` has no ungoverned twin `{base}` in {scope}"
                    ),
                });
            }
        }
    }

    // RI006 — unsafe code is forbidden at every crate root.
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    for lib in roots {
        let text = fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                code: "RI006",
                location: rel(&lib),
                message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }

    println!(
        "repo invariants: {} source files, {} counters, {} histograms, {} bench targets checked",
        sources.len(),
        Metric::ALL.len(),
        Hist::ALL.len(),
        targets.len()
    );
    if findings.is_empty() {
        println!("repo invariants: all invariants hold");
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        println!("{finding}");
    }
    println!("repo invariants: {} violation(s)", findings.len());
    ExitCode::FAILURE
}
