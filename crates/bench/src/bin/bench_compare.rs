//! Diffs freshly emitted `BENCH_<name>.json` timing files against committed
//! baselines and fails on gross warm-path regressions.
//!
//! ```text
//! bench_compare <baseline_dir> <current_dir> [threshold]
//! ```
//!
//! For every `BENCH_*.json` in `baseline_dir`, the tool loads the matching
//! file from `current_dir` and compares the **gated medians** — the cases
//! whose name contains `warm`, plus the dense-kernel `*_interned/` and
//! `*_bitset/` cases of `automata_kernels` and the one-pass `*_stream/`
//! cases (the cache-hit / dense-id / streaming paths, which are the stable,
//! machine-variance-tolerant signals; cold paths determinise from scratch
//! and are too noisy to gate on). A current median more than
//! `threshold`× (default 2×) the baseline median is a regression and fails
//! the run with exit code 1. Missing current files fail too — a bench
//! target silently disappearing is how perf trajectories die.
//!
//! Baselines live in `baselines/` at the repo root and are refreshed by
//! running `make bench-baselines` on the reference machine; CI runs
//! `make bench-compare`.
//!
//! The parser handles exactly the format `dxml_bench::Session::to_json`
//! emits (one case object per line) — the build is offline, so no JSON
//! dependency.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One parsed bench case.
struct Case {
    name: String,
    median_ns: u128,
}

/// A parsed `BENCH_<name>.json` file.
struct BenchFile {
    smoke: bool,
    cases: Vec<Case>,
}

/// Extracts the string value following `"key":` on `line`, if present.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// Extracts the unsigned integer following `"key":` on `line`, if present.
fn field_u128(line: &str, key: &str) -> Option<u128> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn parse_bench_file(path: &Path) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let smoke = text.contains("\"smoke\": true");
    let mut cases = Vec::new();
    for line in text.lines() {
        if let (Some(name), Some(median_ns)) =
            (field_str(line, "name"), field_u128(line, "median_ns"))
        {
            cases.push(Case { name: name.to_string(), median_ns });
        }
    }
    if cases.is_empty() {
        return Err(format!("{} contains no bench cases", path.display()));
    }
    Ok(BenchFile { smoke, cases })
}

/// Whether a case's median gates the comparison: the warm (cache-hit)
/// paths, the interned dense-id paths, the bitset frontier paths and the
/// one-pass streaming-validation paths. Cold paths re-determinise from
/// scratch and vary too much across machines to gate CI on.
fn is_gated(case_name: &str) -> bool {
    case_name.contains("warm")
        || case_name.contains("_interned/")
        || case_name.contains("_bitset/")
        || case_name.contains("_stream/")
}

fn baseline_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn run(baseline_dir: &Path, current_dir: &Path, threshold: f64) -> Result<(), String> {
    let baselines = baseline_files(baseline_dir)?;
    if baselines.is_empty() {
        return Err(format!("no BENCH_*.json baselines in {}", baseline_dir.display()));
    }
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for baseline_path in &baselines {
        let file_name = baseline_path.file_name().expect("baseline has a name");
        let current_path = current_dir.join(file_name);
        let baseline = parse_bench_file(baseline_path)?;
        let current = parse_bench_file(&current_path).map_err(|e| {
            format!("{e} — did the bench target stop emitting its timing file?")
        })?;
        if baseline.smoke || current.smoke {
            return Err(format!(
                "{}: smoke-mode timings (1 iteration) cannot be compared; \
                 run the benches without DXML_BENCH_SMOKE",
                file_name.to_string_lossy()
            ));
        }
        for base_case in baseline.cases.iter().filter(|c| is_gated(&c.name)) {
            let Some(cur_case) = current.cases.iter().find(|c| c.name == base_case.name) else {
                regressions.push(format!(
                    "{}: warm case `{}` disappeared",
                    file_name.to_string_lossy(),
                    base_case.name
                ));
                continue;
            };
            compared += 1;
            let ratio = cur_case.median_ns as f64 / base_case.median_ns.max(1) as f64;
            let verdict = if ratio > threshold { "REGRESSION" } else { "ok" };
            println!(
                "{:<14} {:<45} baseline {:>12} ns   current {:>12} ns   x{ratio:.2}",
                verdict,
                base_case.name,
                base_case.median_ns,
                cur_case.median_ns
            );
            if ratio > threshold {
                regressions.push(format!(
                    "{}: `{}` regressed {ratio:.2}× (baseline {} ns, current {} ns)",
                    file_name.to_string_lossy(),
                    base_case.name,
                    base_case.median_ns,
                    cur_case.median_ns
                ));
            }
        }
    }
    println!("\nbench_compare: {compared} warm-path medians compared against {} files", baselines.len());
    if regressions.is_empty() {
        println!("bench_compare: no median regressed beyond {threshold}×");
        Ok(())
    } else {
        Err(format!(
            "{} warm-path regression(s) beyond {threshold}×:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_dir, current_dir) = match (args.get(1), args.get(2)) {
        (Some(b), Some(c)) => (PathBuf::from(b), PathBuf::from(c)),
        _ => {
            eprintln!("usage: bench_compare <baseline_dir> <current_dir> [threshold]");
            return ExitCode::FAILURE;
        }
    };
    let threshold: f64 = match args.get(3) {
        None => 2.0,
        Some(t) => match t.parse() {
            Ok(v) if v > 1.0 => v,
            _ => {
                eprintln!("bench_compare: threshold must be a number > 1.0, got `{t}`");
                return ExitCode::FAILURE;
            }
        },
    };
    match run(&baseline_dir, &current_dir, threshold) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction() {
        let line = r#"    {"name":"box_typecheck_warm/n=16","iters":5,"median_ns":123456,"mean_ns":130000}"#;
        assert_eq!(field_str(line, "name"), Some("box_typecheck_warm/n=16"));
        assert_eq!(field_u128(line, "median_ns"), Some(123456));
        assert_eq!(field_u128(line, "iters"), Some(5));
        assert_eq!(field_str(line, "missing"), None);
    }

    #[test]
    fn gating_selects_warm_interned_and_bitset_cases() {
        assert!(is_gated("box_typecheck_warm/n=16"));
        assert!(is_gated("typecheck_warm/n=8"));
        assert!(is_gated("subset_construction_interned/n=32"));
        assert!(is_gated("membership_bitset/n=32"));
        assert!(is_gated("outputs_over_bitset/n=16"));
        assert!(is_gated("definable_dtd_warm/n=12"));
        assert!(is_gated("analyze_box_warm/n=16"));
        assert!(is_gated("validate_stream/deep/n=1000"));
        assert!(!is_gated("typecheck_cold/n=16"));
        assert!(!is_gated("typecheck_refute/n=16"));
        assert!(!is_gated("validate_tree/deep/n=1000"));
        assert!(!is_gated("enabled_streaming/n=256"));
        assert!(!is_gated("perfect_schema/n=16"));
    }

    /// A scratch directory unique to one test, emptied on creation.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dxml-bench-compare-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `BENCH_<bench>.json` into `dir` in the `Session::to_json`
    /// layout, one `(name, median_ns)` case per line.
    fn write_bench(dir: &Path, bench: &str, smoke: bool, cases: &[(&str, u128)]) {
        let lines: Vec<String> = cases
            .iter()
            .map(|(name, median)| {
                format!(r#"    {{"name":"{name}","iters":10,"median_ns":{median},"mean_ns":{median}}}"#)
            })
            .collect();
        let text = format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"smoke\": {smoke},\n  \"results\": [\n{}\n  ]\n}}\n",
            lines.join(",\n")
        );
        std::fs::write(dir.join(format!("BENCH_{bench}.json")), text).unwrap();
    }

    /// Runs [`run`] on one baseline/current pair of `BENCH_t.json` files;
    /// `current: None` leaves the current directory empty.
    fn compare(
        test: &str,
        baseline: &[(&str, u128)],
        current: Option<(bool, &[(&str, u128)])>,
    ) -> Result<(), String> {
        let root = scratch_dir(test);
        let (base_dir, cur_dir) = (root.join("base"), root.join("cur"));
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();
        write_bench(&base_dir, "t", false, baseline);
        if let Some((smoke, cases)) = current {
            write_bench(&cur_dir, "t", smoke, cases);
        }
        let result = run(&base_dir, &cur_dir, 2.0);
        std::fs::remove_dir_all(&root).unwrap();
        result
    }

    #[test]
    fn a_missing_gated_case_fails() {
        let err = compare(
            "missing-case",
            &[("typecheck_warm/n=8", 1000), ("typecheck_cold/n=8", 1000)],
            Some((false, &[("typecheck_cold/n=8", 1000)])),
        )
        .unwrap_err();
        assert!(err.contains("`typecheck_warm/n=8` disappeared"), "{err}");
    }

    #[test]
    fn gated_medians_fail_only_beyond_the_threshold() {
        let base: &[(&str, u128)] = &[("typecheck_warm/n=8", 1000)];
        let err = compare("ratio-2.1", base, Some((false, &[("typecheck_warm/n=8", 2100)])))
            .unwrap_err();
        assert!(err.contains("regressed 2.10×"), "{err}");
        compare("ratio-1.9", base, Some((false, &[("typecheck_warm/n=8", 1900)]))).unwrap();
    }

    #[test]
    fn ungated_cold_cases_never_fail() {
        compare(
            "cold",
            &[("typecheck_cold/n=8", 1000), ("membership_bitset/n=8", 1000)],
            Some((false, &[("typecheck_cold/n=8", 1_000_000), ("membership_bitset/n=8", 1000)])),
        )
        .unwrap();
    }

    #[test]
    fn smoke_files_are_rejected() {
        let cases: &[(&str, u128)] = &[("typecheck_warm/n=8", 1000)];
        let err = compare("smoke", cases, Some((true, cases))).unwrap_err();
        assert!(err.contains("smoke-mode timings"), "{err}");
    }

    #[test]
    fn a_baseline_without_a_current_file_fails() {
        let err = compare("no-current", &[("typecheck_warm/n=8", 1000)], None).unwrap_err();
        assert!(err.contains("stop emitting its timing file"), "{err}");
    }
}
