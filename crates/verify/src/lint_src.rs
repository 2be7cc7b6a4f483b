//! The workspace determinism lint (`dice-lint lint-src`).
//!
//! The DICE reproduction promises bit-identical results across runs,
//! thread counts, and machines. That promise is easy to break with one
//! innocuous line — a raw thread, an iteration over a hashed container, a
//! wall-clock read feeding a decision, a float sum whose value depends on
//! reduction order — and none of those show up in unit tests until the
//! schedule happens to differ. This module is a line-oriented scanner over
//! the workspace's `crates/*/src` trees that denies the constructs which
//! have historically caused nondeterminism, outside the places sanctioned
//! to use them:
//!
//! | rule | severity | banned | sanctioned home |
//! |------|----------|--------|-----------------|
//! | `thread-spawn` | error | `std::thread` spawn / `Builder` | nowhere (pragma per site) |
//! | `unordered-parallelism` | error | `rayon` spawn / join / scope / `par_bridge` | nowhere — only the ordered `par_iter` map/collect surface |
//! | `hash-container` | warning | `HashMap` / `HashSet` | non-model-facing crates |
//! | `wall-clock` | warning | `Instant::now` / `SystemTime` | `crates/telemetry/src` |
//! | `float-accumulation` | warning | `.sum::<f64>()` / `fold(0.0` | `crates/core/src/stats.rs` (`ExactSum`) |
//! | `simd-guard` | error | `#[target_feature]` / `std::arch` intrinsics | any file that also calls `is_x86_feature_detected!` |
//!
//! # Pragmas
//!
//! A site that has been audited carries an allowlist pragma:
//!
//! * `// lint-src: allow(<rule>)` on the offending line or the line
//!   directly above it suppresses that rule for that one line.
//! * `// lint-src: allow-file(<rule>)` anywhere in the file suppresses
//!   the rule for the whole file — used where a construct is pervasive
//!   and the file-level justification lives in the surrounding comment.
//!
//! # Scanning rules
//!
//! The scanner is deliberately simple and deterministic: files are
//! visited in sorted path order, lines in order. Comment-only lines are
//! never matched (pragmas are still read from them), the code before an
//! inline `//` is matched while the comment after it is not, and
//! everything from the first `#[cfg(test)]` line to the end of the file
//! is skipped — tests may spawn threads and hash to their heart's
//! content. The scanner's own rule table (this file) is exempt, since it
//! must spell out every banned pattern.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use dice_core::Severity;

/// One determinism finding in workspace source.
#[derive(Debug, Clone)]
pub struct SrcFinding {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (e.g. `wall-clock`).
    pub rule: &'static str,
    /// Error for constructs that are never acceptable unaudited;
    /// warning for ones with sanctioned homes.
    pub severity: Severity,
    /// What matched and why it is banned.
    pub message: String,
}

impl fmt::Display for SrcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}:{}: {}",
            self.severity, self.rule, self.path, self.line, self.message
        )
    }
}

struct LintRule {
    name: &'static str,
    severity: Severity,
    patterns: &'static [&'static str],
    why: &'static str,
}

/// Crates whose sources feed model state, and therefore must iterate
/// deterministically (the `hash-container` rule's scope).
const MODEL_FACING_CRATES: &[&str] = &[
    "crates/core/",
    "crates/types/",
    "crates/sim/",
    "crates/datasets/",
    "crates/faults/",
    "crates/gateway/",
];

const RULES: &[LintRule] = &[
    LintRule {
        name: "thread-spawn",
        severity: Severity::Error,
        patterns: &["thread::spawn", "thread::Builder"],
        why: "raw threads interleave nondeterministically; use the \
              deterministic parallel trainer or the ordered rayon surface, \
              or audit the site and add a pragma",
    },
    LintRule {
        name: "unordered-parallelism",
        severity: Severity::Error,
        patterns: &["rayon::spawn", "rayon::join", "rayon::scope", "par_bridge"],
        why: "unordered rayon primitives surrender result ordering; only \
              the ordered par_iter map/collect surface is allowed",
    },
    LintRule {
        name: "hash-container",
        severity: Severity::Warning,
        patterns: &["HashMap", "HashSet"],
        why: "hashed iteration order is arbitrary; model-facing code must \
              iterate in sorted order or carry an audit pragma",
    },
    LintRule {
        name: "wall-clock",
        severity: Severity::Warning,
        patterns: &["Instant::now", "SystemTime"],
        why: "wall-clock reads make replays diverge; timing belongs in \
              dice-telemetry spans or behind an audit pragma",
    },
    LintRule {
        name: "float-accumulation",
        severity: Severity::Warning,
        patterns: &[".sum::<f64>()", "fold(0.0"],
        why: "naive float summation is reduction-order-sensitive; use \
              stats::ExactSum",
    },
    LintRule {
        name: "simd-guard",
        severity: Severity::Error,
        patterns: &[
            "#[target_feature(",
            "_mm256_",
            "_mm_",
            "std::arch::",
            "core::arch::",
        ],
        why: "calling a #[target_feature] kernel on a CPU without the \
              feature is undefined behavior; a file using std::arch \
              intrinsics must gate dispatch behind \
              is_x86_feature_detected! or carry an audit pragma",
    },
];

/// Whether `rule` is in force for the file at workspace-relative `path`.
fn rule_applies(rule: &LintRule, path: &str) -> bool {
    match rule.name {
        "hash-container" => MODEL_FACING_CRATES.iter().any(|c| path.starts_with(c)),
        "wall-clock" => !path.starts_with("crates/telemetry/src"),
        "float-accumulation" => path != "crates/core/src/stats.rs",
        _ => true,
    }
}

/// Lints one file's content. Pure — the unit of testing.
///
/// `path` must be workspace-relative with forward slashes (it drives the
/// per-rule scoping above).
pub fn lint_source(path: &str, content: &str) -> Vec<SrcFinding> {
    // The rule table itself must spell out every banned pattern.
    if path == "crates/verify/src/lint_src.rs" {
        return Vec::new();
    }
    let file_allows: Vec<&str> = RULES
        .iter()
        .map(|r| r.name)
        .filter(|name| content.contains(&format!("lint-src: allow-file({name})")))
        .collect();
    // `simd-guard` is satisfied by evidence rather than location: a file
    // that calls `is_x86_feature_detected!` anywhere demonstrably gates its
    // kernels behind runtime dispatch, so its intrinsics are sanctioned.
    let simd_guarded = content.contains("is_x86_feature_detected!");
    let mut findings = Vec::new();
    let mut prev_comment = String::new();
    for (idx, raw) in content.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed == "#[cfg(test)]" {
            break; // tests (at the end of the file by convention) may do anything
        }
        // Split code from an inline comment so commented-out mentions of a
        // banned construct never fire, while same-line pragmas still work.
        // (Naive: a "//" inside a string literal also splits. Acceptable.)
        let (code, comment) = match raw.find("//") {
            Some(pos) => raw.split_at(pos),
            None => (raw, ""),
        };
        for rule in RULES {
            if !rule_applies(rule, path) || file_allows.contains(&rule.name) {
                continue;
            }
            if rule.name == "simd-guard" && simd_guarded {
                continue;
            }
            let Some(pattern) = rule.patterns.iter().find(|p| code.contains(**p)) else {
                continue;
            };
            let pragma = format!("lint-src: allow({})", rule.name);
            if comment.contains(&pragma) || prev_comment.contains(&pragma) {
                continue;
            }
            findings.push(SrcFinding {
                path: path.to_string(),
                line: idx + 1,
                rule: rule.name,
                severity: rule.severity,
                message: format!("{pattern:?} is banned here: {}", rule.why),
            });
        }
        // A pragma only reaches the next line from a comment-only line, so
        // it cannot accidentally blanket a stretch of code.
        prev_comment = if trimmed.starts_with("//") {
            trimmed.to_string()
        } else {
            String::new()
        };
    }
    findings
}

/// Lints every `crates/*/src/**/*.rs` file under `root` (the workspace
/// directory), in sorted path order.
///
/// # Errors
///
/// Returns a description of the first filesystem problem (missing
/// `crates/` directory, unreadable file).
pub fn lint_workspace(root: &Path) -> Result<Vec<SrcFinding>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut findings = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let content = fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            findings.extend(lint_source(&rel, &content));
        }
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))? {
        let path = entry
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders findings one per line, matching [`SrcFinding`]'s `Display`.
pub fn render_src_findings(findings: &[SrcFinding]) -> String {
    let mut out = String::new();
    for finding in findings {
        out.push_str(&finding.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, content: &str) -> Vec<&'static str> {
        lint_source(path, content)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn bans_thread_spawn_everywhere() {
        let src = "fn main() {\n    std::thread::spawn(|| {});\n}\n";
        let findings = lint_source("crates/eval/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "thread-spawn");
        assert_eq!(findings[0].severity, Severity::Error);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn hash_container_scope_is_model_facing() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), ["hash-container"]);
        assert!(rules_fired("crates/eval/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_is_sanctioned_in_telemetry() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), ["wall-clock"]);
        assert!(rules_fired("crates/telemetry/src/sketch.rs", src).is_empty());
    }

    #[test]
    fn float_accumulation_is_sanctioned_in_stats() {
        let src = "let s = xs.iter().sum::<f64>();\n";
        assert_eq!(
            rules_fired("crates/eval/src/x.rs", src),
            ["float-accumulation"]
        );
        assert!(rules_fired("crates/core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn same_line_and_preceding_line_pragmas_suppress() {
        let same = "let t = Instant::now(); // lint-src: allow(wall-clock)\n";
        assert!(rules_fired("crates/core/src/x.rs", same).is_empty());
        let above = "// audited: lint-src: allow(wall-clock)\nlet t = Instant::now();\n";
        assert!(rules_fired("crates/core/src/x.rs", above).is_empty());
        // The wrong rule name does not suppress.
        let wrong = "let t = Instant::now(); // lint-src: allow(hash-container)\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", wrong), ["wall-clock"]);
    }

    #[test]
    fn pragma_does_not_reach_past_one_line() {
        let src = "// lint-src: allow(wall-clock)\nlet a = 1;\nlet t = Instant::now();\n";
        let findings = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn file_pragma_suppresses_whole_file() {
        let src = "// justification here. lint-src: allow-file(hash-container)\n\
                   use std::collections::HashMap;\n\
                   use std::collections::HashSet;\n";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn comments_and_test_modules_are_skipped() {
        let commented = "// mentions Instant::now in prose only\n";
        assert!(rules_fired("crates/core/src/x.rs", commented).is_empty());
        let inline = "let a = 1; // Instant::now in a trailing comment\n";
        assert!(rules_fired("crates/core/src/x.rs", inline).is_empty());
        let test_mod =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(rules_fired("crates/core/src/x.rs", test_mod).is_empty());
    }

    #[test]
    fn simd_without_runtime_detection_is_flagged() {
        let src = "#[target_feature(enable = \"avx2\")]\n\
                   unsafe fn kernel(x: core::arch::x86_64::__m256i) {}\n";
        let findings = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 2, "attribute and intrinsic type both fire");
        assert!(findings.iter().all(|f| f.rule == "simd-guard"));
        assert!(findings.iter().all(|f| f.severity == Severity::Error));
    }

    #[test]
    fn simd_with_runtime_detection_is_sanctioned() {
        let src = "fn pick() -> bool { is_x86_feature_detected!(\"avx2\") }\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn kernel() { let _ = _mm256_setzero_si256(); }\n";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn simd_pragma_suppresses_one_site() {
        let src = "// audited: lint-src: allow(simd-guard)\n\
                   unsafe fn kernel() { let _ = std::arch::x86_64::_mm_setzero_si128(); }\n";
        assert!(rules_fired("crates/eval/src/x.rs", src).is_empty());
        let bare = "unsafe fn kernel() { let _ = std::arch::x86_64::_mm_setzero_si128(); }\n";
        assert_eq!(rules_fired("crates/eval/src/x.rs", bare), ["simd-guard"]);
    }

    #[test]
    fn own_rule_table_is_exempt() {
        let src = "patterns: &[\"thread::spawn\"],\n";
        assert!(rules_fired("crates/verify/src/lint_src.rs", src).is_empty());
        assert_eq!(
            rules_fired("crates/verify/src/other.rs", src),
            ["thread-spawn"]
        );
    }

    #[test]
    fn workspace_lint_is_clean_on_this_workspace() {
        // The real tree must stay lint-clean: every audited site carries
        // its pragma. CARGO_MANIFEST_DIR is crates/verify.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let findings = lint_workspace(root).expect("workspace scans");
        assert!(
            findings.is_empty(),
            "workspace determinism lint found:\n{}",
            render_src_findings(&findings)
        );
    }
}
