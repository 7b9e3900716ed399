//! The rule engine: pattern rules over masked source, scoped by file
//! class, with auditable suppressions.
//!
//! Every rule matches on the *masked* source from [`crate::lexer`], so
//! strings and comments can never fire a rule. Matching is plain
//! identifier-bounded substring search — deliberately dumb, so a human
//! can predict exactly what fires — plus one structural heuristic for
//! slice indexing.
//!
//! # Scoping
//!
//! Rules see a [`FileClass`] derived from the workspace-relative path:
//! which crate the file belongs to, whether it is test code (any
//! `tests/` or `benches/` path component), and whether it is a binary
//! (`bin/` component). Test files are exempt from every rule, as are
//! `#[cfg(test)]` regions inside library files.
//!
//! # Suppressions
//!
//! `// pvlint: allow(D02): <reason>` suppresses one rule on one line —
//! the pragma's own line when it trails code, or the next line when the
//! comment stands alone. The reason is mandatory, unknown rule IDs are
//! rejected, and a pragma that suppresses nothing becomes an `X01`
//! finding itself, so stale allows fail the build. The meta rules
//! (`X01` unused suppression, `X02` malformed pragma) cannot be
//! suppressed.

use crate::lexer::{self, ByteClass};

/// A single lint rule: identifier-bounded needle patterns searched in
/// masked source. The slice-index heuristic of `R01` is implemented
/// structurally in addition to these patterns.
#[derive(Debug)]
pub struct Rule {
    /// Stable rule ID (`D01` … `R03`), the key used by `allow(...)`.
    pub id: &'static str,
    /// Severity label carried into the JSON artifact; every rule is
    /// currently `deny` (any unsuppressed finding fails the build).
    pub severity: &'static str,
    /// One-line rationale, shown next to every finding.
    pub summary: &'static str,
    /// Needle patterns; a match is rejected when an identifier byte
    /// directly precedes/follows a pattern that starts/ends with one.
    pub patterns: &'static [&'static str],
}

/// ID of the meta rule reporting suppressions that matched nothing.
pub const UNUSED_SUPPRESSION: &str = "X01";
/// ID of the meta rule reporting pragmas that failed to parse.
pub const MALFORMED_PRAGMA: &str = "X02";

/// The rule table. Order is presentation order in `pvlint --list-rules`.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D01",
        severity: "deny",
        summary:
            "hash collections iterate in nondeterministic order; use BTreeMap/BTreeSet or sort",
        patterns: &["HashMap", "HashSet"],
    },
    Rule {
        id: "D02",
        severity: "deny",
        summary: "wall-clock read outside an allowlisted timing module breaks result determinism",
        patterns: &["Instant::now", "SystemTime"],
    },
    Rule {
        id: "D03",
        severity: "deny",
        summary: "ad-hoc threads or child processes outside pv_runtime bypass the \
                  deterministic executor and its supervised teardown",
        patterns: &[
            "thread::spawn",
            "thread::Builder",
            "thread::scope",
            "process::Command",
            "Command::new",
        ],
    },
    Rule {
        id: "D04",
        severity: "deny",
        summary:
            "environment read in a result-producing crate makes results depend on ambient state",
        patterns: &[
            "env::var",
            "env::vars",
            "env::args",
            "env::var_os",
            "env::temp_dir",
        ],
    },
    Rule {
        id: "D05",
        severity: "deny",
        summary:
            "arch intrinsics would fork the lane kernels from their portable, bit-identity-audited \
             form; no intrinsics module is sanctioned (pv_gis forbids unsafe code)",
        patterns: &["core::arch", "std::arch"],
    },
    Rule {
        id: "R01",
        severity: "deny",
        summary: "panic path in a request-serving or CLI body; return a structured error instead",
        patterns: &[
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ],
    },
    Rule {
        id: "R02",
        severity: "deny",
        summary: "stdout print in library code; return data and let the bins do the talking",
        patterns: &["println!", "dbg!"],
    },
    Rule {
        id: "R03",
        severity: "deny",
        summary: "ad-hoc stderr print in library code; emit structured events through a \
                  pv_obs sink (TraceLog) or return an error for the CLI layer to report",
        patterns: &["eprintln!", "eprint!", "io::stderr"],
    },
];

/// Looks a rule up by ID. Meta rules are not in the table (they cannot
/// be suppressed, so `allow(X01)` must not resolve).
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|rule| rule.id == id)
}

/// What kind of file a workspace-relative path denotes, for rule
/// scoping decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name under `crates/`, or `"root"` for the
    /// facade package at the workspace root.
    pub crate_name: String,
    /// Any `tests/` or `benches/` path component: exempt from all rules.
    pub is_test: bool,
    /// Any `bin/` path component: a CLI entry point.
    pub is_bin: bool,
    /// Final path component.
    pub file_name: String,
}

impl FileClass {
    /// Classifies a workspace-relative, `/`-separated path.
    pub fn of(rel_path: &str) -> FileClass {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_name = match (parts.first(), parts.get(1)) {
            (Some(&"crates"), Some(name)) => (*name).to_string(),
            _ => "root".to_string(),
        };
        FileClass {
            crate_name,
            is_test: parts.iter().any(|p| *p == "tests" || *p == "benches"),
            is_bin: parts.contains(&"bin"),
            file_name: parts.last().copied().unwrap_or_default().to_string(),
        }
    }
}

/// Crates whose outputs are experiment results; ambient environment
/// reads there (D04) would make results irreproducible.
const RESULT_CRATES: &[&str] = &["units", "geom", "gis", "model", "floorplan", "json"];

/// Decides whether `rule` applies to a file. This is the codified scope
/// column of the DESIGN.md rule table:
///
/// * `D01` — everywhere outside test code.
/// * `D02` — exempt: `pv_bench` (the measurement harness), `pv_obs`
///   (the sanctioned wall-clock home — every serving-side timer is a
///   `pv_obs::Timer`, so the clock reads live in one audited crate),
///   and files named `stats.rs` (the allowlisted timing modules).
/// * `D03` — exempt: `pv_runtime` (the one crate allowed to own threads
///   and child processes — `pv_runtime::proc` is the sanctioned home of
///   `process::Command`, so the shard router supervises workers through
///   it instead of ad-hoc spawning).
/// * `D04` — result-producing crates only (units, geom, gis, model,
///   floorplan, json).
/// * `D05` — everywhere, including `crates/gis/src/lanes.rs`: no
///   intrinsics module is sanctioned, so any arch use demands an audited
///   `allow(D05)` pragma with a written reason.
/// * `R01` — `pv_server` request paths, `pv_store` decode/persist paths
///   (they run inside request handling and parse untrusted bytes), and
///   the `pvplan` CLI body.
/// * `R02` — library code (anything that is not a `bin/` target).
/// * `R03` — library code outside `pv_obs` (whose sinks are the one
///   sanctioned place to own an output stream; CLI `bin/` error paths
///   keep printing to stderr, which is what stderr is for).
pub fn rule_applies(rule: &Rule, class: &FileClass, rel_path: &str) -> bool {
    if class.is_test {
        return false;
    }
    match rule.id {
        "D01" => true,
        "D02" => {
            class.crate_name != "bench"
                && class.crate_name != "obs"
                && class.file_name != "stats.rs"
        }
        "D03" => class.crate_name != "runtime",
        "D04" => RESULT_CRATES.contains(&class.crate_name.as_str()),
        "D05" => true,
        "R01" => {
            class.crate_name == "server"
                || class.crate_name == "store"
                || rel_path == "src/bin/pvplan.rs"
        }
        "R02" => !class.is_bin,
        "R03" => !class.is_bin && class.crate_name != "obs",
        _ => false,
    }
}

/// One reported problem: a rule violation, an unused suppression, or a
/// malformed pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (`D01`…`R03`, or meta `X01`/`X02`).
    pub rule: String,
    /// Severity label of the rule.
    pub severity: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What fired and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Unsuppressed findings, sorted by line then rule.
    pub findings: Vec<Finding>,
    /// Number of matches silenced by a used `allow` pragma.
    pub suppressed: usize,
}

/// A parsed `pvlint: allow(...)` pragma awaiting a match.
struct Suppression {
    rule: String,
    /// Line the pragma suppresses (its own, or the next for standalone
    /// comments).
    target_line: usize,
    /// Line the pragma itself sits on, for X01 reporting.
    pragma_line: usize,
    reason: String,
    used: bool,
}

/// Lints a single source file. `rel_path` must be workspace-relative
/// with `/` separators — it drives all scoping decisions.
pub fn lint_source(rel_path: &str, source: &str) -> FileLint {
    let class = FileClass::of(rel_path);
    if class.is_test {
        return FileLint::default();
    }

    let classes = lexer::classify(source);
    let mask = lexer::mask_code(source, &classes);
    let regions = test_regions(&mask);
    let (mut suppressions, mut findings) = collect_suppressions(rel_path, source, &mask, &classes);
    let mut suppressed = 0;

    let mut candidates: Vec<(&'static Rule, usize, String)> = Vec::new();
    for rule in RULES {
        if !rule_applies(rule, &class, rel_path) {
            continue;
        }
        for pat in rule.patterns {
            for offset in find_pattern(&mask, pat.as_bytes()) {
                candidates.push((rule, offset, format!("`{pat}` — {}", rule.summary)));
            }
        }
        if rule.id == "R01" {
            for offset in find_slice_index(&mask) {
                candidates.push((
                    rule,
                    offset,
                    format!("direct slice index — {}", rule.summary),
                ));
            }
        }
    }

    for (rule, offset, message) in candidates {
        if regions
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
        {
            continue;
        }
        let line = line_of(source, offset);
        let matched = suppressions
            .iter_mut()
            .find(|s| s.rule == rule.id && s.target_line == line);
        if let Some(suppression) = matched {
            suppression.used = true;
            suppressed += 1;
        } else {
            findings.push(Finding {
                rule: rule.id.to_string(),
                severity: rule.severity.to_string(),
                path: rel_path.to_string(),
                line,
                message,
                excerpt: line_text(source, line),
            });
        }
    }

    for suppression in &suppressions {
        if !suppression.used {
            findings.push(Finding {
                rule: UNUSED_SUPPRESSION.to_string(),
                severity: "deny".to_string(),
                path: rel_path.to_string(),
                line: suppression.pragma_line,
                message: format!(
                    "unused suppression for {} (\"{}\") — remove the stale allow",
                    suppression.rule, suppression.reason
                ),
                excerpt: line_text(source, suppression.pragma_line),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    FileLint {
        findings,
        suppressed,
    }
}

/// Parses every `pvlint:` pragma in the file's comments. Returns the
/// well-formed suppressions plus `X02` findings for malformed ones.
fn collect_suppressions(
    rel_path: &str,
    source: &str,
    mask: &[u8],
    classes: &[ByteClass],
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut suppressions = Vec::new();
    let mut malformed = Vec::new();
    for (start, end) in lexer::comment_spans(classes) {
        let text = &source[start..end];
        let Some(parsed) = parse_pragma(text) else {
            continue;
        };
        let pragma_line = line_of(source, start);
        match parsed {
            Ok((rule, reason)) => {
                let target_line = if standalone_comment(source, mask, start) {
                    pragma_line + 1
                } else {
                    pragma_line
                };
                suppressions.push(Suppression {
                    rule,
                    target_line,
                    pragma_line,
                    reason,
                    used: false,
                });
            }
            Err(why) => malformed.push(Finding {
                rule: MALFORMED_PRAGMA.to_string(),
                severity: "deny".to_string(),
                path: rel_path.to_string(),
                line: pragma_line,
                message: format!("malformed pvlint pragma: {why}"),
                excerpt: line_text(source, pragma_line),
            }),
        }
    }
    (suppressions, malformed)
}

/// Grammar: `pvlint: allow(<RULE>): <reason>`, and the marker must be
/// the comment's *leading* content (directly after the `//`/`/*`
/// opener) — prose that merely mentions the grammar mid-sentence is not
/// a pragma. Returns `None` when the comment carries no leading
/// `pvlint:` marker, `Some(Err(...))` when it does but the pragma is
/// malformed.
fn parse_pragma(comment: &str) -> Option<Result<(String, String), String>> {
    let content = comment.trim_start_matches(['/', '*', '!']).trim_start();
    let rest = content.strip_prefix("pvlint:")?.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err("expected `allow(<RULE>)` after `pvlint:`".to_string()));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed `allow(`".to_string()));
    };
    let id = rest[..close].trim();
    if rule_by_id(id).is_none() {
        return Some(Err(format!("unknown or unsuppressable rule `{id}`")));
    }
    let Some(reason) = rest[close + 1..].trim_start().strip_prefix(':') else {
        return Some(Err("missing `: <reason>` after the rule".to_string()));
    };
    let reason = reason.trim();
    let reason = reason.strip_suffix("*/").map_or(reason, str::trim_end);
    if reason.is_empty() {
        return Some(Err("the reason must not be empty".to_string()));
    }
    Some(Ok((id.to_string(), reason.to_string())))
}

/// A comment is standalone when nothing but whitespace precedes it on
/// its line (checked against the mask, so a preceding *string* does not
/// count as code it annotates).
fn standalone_comment(source: &str, mask: &[u8], comment_start: usize) -> bool {
    let line_start = source[..comment_start].rfind('\n').map_or(0, |nl| nl + 1);
    mask[line_start..comment_start]
        .iter()
        .all(|&b| b == b' ' || b == b'\t')
}

/// Identifier-bounded substring search over the masked source: if the
/// pattern starts (ends) with an identifier byte, the byte before
/// (after) the match must not be one — `.expect(` does not match
/// `.expect_err(`, `HashMap` does not match `MyHashMapLike`.
pub fn find_pattern(mask: &[u8], pat: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    if pat.is_empty() || mask.len() < pat.len() {
        return out;
    }
    let bound_front = lexer::is_ident_byte(pat[0]);
    let bound_back = lexer::is_ident_byte(pat[pat.len() - 1]);
    for start in 0..=mask.len() - pat.len() {
        if &mask[start..start + pat.len()] != pat {
            continue;
        }
        if bound_front && start > 0 && lexer::is_ident_byte(mask[start - 1]) {
            continue;
        }
        if bound_back
            && mask
                .get(start + pat.len())
                .is_some_and(|&b| lexer::is_ident_byte(b))
        {
            continue;
        }
        out.push(start);
    }
    out
}

/// Direct slice indexing: a `[` immediately preceded (no whitespace) by
/// an identifier byte, `)` or `]`. Attributes (`#[...]`), macro brackets
/// (`vec![...]`), slice types (`&[u8]`) and array literals all have a
/// different preceding byte and do not fire.
pub fn find_slice_index(mask: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 1..mask.len() {
        if mask[i] != b'[' {
            continue;
        }
        let prev = mask[i - 1];
        if lexer::is_ident_byte(prev) || prev == b')' || prev == b']' {
            out.push(i);
        }
    }
    out
}

/// Byte ranges covered by `#[cfg(test)]` items: from the attribute to
/// the matching close brace of the item that follows (or the next `;`
/// for brace-less items). Rules skip matches inside these regions.
fn test_regions(mask: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for start in find_pattern(mask, b"cfg(test)") {
        let mut j = start + "cfg(test)".len();
        let mut open = None;
        while j < mask.len() {
            match mask[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let end = match open {
            Some(brace) => {
                let mut depth = 0usize;
                let mut k = brace;
                loop {
                    if k >= mask.len() {
                        break k;
                    }
                    match mask[k] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break k + 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            None => j,
        };
        out.push((start, end));
    }
    out
}

/// 1-based line number of a byte offset.
fn line_of(source: &str, offset: usize) -> usize {
    source.as_bytes()[..offset.min(source.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Trimmed text of a 1-based line, truncated for report readability.
fn line_text(source: &str, line: usize) -> String {
    let text = source
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim();
    if text.chars().count() > 120 {
        let cut: String = text.chars().take(117).collect();
        format!("{cut}...")
    } else {
        text.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders findings as `rule@line` for compact asserts.
    fn fire(rel_path: &str, source: &str) -> Vec<String> {
        lint_source(rel_path, source)
            .findings
            .iter()
            .map(|f| format!("{}@{}", f.rule, f.line))
            .collect()
    }

    const LIB: &str = "crates/gis/src/fake.rs";

    #[test]
    fn d01_fires_in_library_code_and_respects_allow() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(fire(LIB, src), ["D01@1"]);
        let allowed =
            "use std::collections::HashMap; // pvlint: allow(D01): keys are sorted before use\n";
        let lint = lint_source(LIB, allowed);
        assert!(lint.findings.is_empty(), "{:?}", lint.findings);
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn d01_is_silent_in_strings_comments_and_tests() {
        let src = "let s = \"HashMap\"; // HashMap\n";
        assert!(fire(LIB, src).is_empty());
        assert!(fire(
            "crates/gis/tests/fake.rs",
            "use std::collections::HashMap;\n"
        )
        .is_empty());
        let in_test_mod =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(fire(LIB, in_test_mod).is_empty());
    }

    #[test]
    fn d02_exempts_bench_obs_and_stats_modules() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(fire(LIB, src), ["D02@1"]);
        assert!(fire("crates/bench/src/fake.rs", src).is_empty());
        // pv_obs is the sanctioned wall-clock home: every serving-side
        // span timer reads the clock through pv_obs::Timer.
        assert!(fire("crates/obs/src/fake.rs", src).is_empty());
        assert!(fire("crates/server/src/stats.rs", src).is_empty());
    }

    #[test]
    fn d03_exempts_runtime_only() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(fire(LIB, src), ["D03@1"]);
        assert_eq!(fire("crates/server/src/fake.rs", src), ["D03@1"]);
        assert!(fire("crates/runtime/src/fake.rs", src).is_empty());
    }

    #[test]
    fn d03_covers_child_processes_like_threads() {
        // Spawning a process escapes the supervised lifecycle exactly
        // like an ad-hoc thread; only pv_runtime may own either. Both
        // the import and the construction site are caught.
        let import = "use std::process::Command;\n";
        assert_eq!(fire("crates/server/src/fake.rs", import), ["D03@1"]);
        let spawn = "let c = Command::new(\"sh\").spawn();\n";
        assert_eq!(fire("crates/server/src/fake.rs", spawn), ["D03@1"]);
        assert!(fire("crates/runtime/src/fake.rs", import).is_empty());
        assert!(fire("crates/runtime/src/fake.rs", spawn).is_empty());
        // A pragma with a written reason still silences it.
        let allowed =
            "// pvlint: allow(D03): fixture process, reaped below\nCommand::new(\"sh\");\n";
        assert!(fire("crates/server/src/fake.rs", allowed).is_empty());
        // Doc comments that merely *mention* the pattern stay inert.
        let comment = "//! pvlint rule D03 bans `process::Command` elsewhere.\n";
        assert!(fire("crates/server/src/fake.rs", comment).is_empty());
    }

    #[test]
    fn d04_fires_only_in_result_producing_crates() {
        let src = "let home = std::env::var(\"HOME\");\n";
        assert_eq!(fire(LIB, src), ["D04@1"]);
        assert!(fire("crates/server/src/fake.rs", src).is_empty());
        assert!(fire("src/bin/pvplan.rs", src).is_empty());
    }

    #[test]
    fn d05_fires_everywhere_and_demands_a_pinned_allow() {
        let src = "use core::arch::x86_64::_mm256_add_pd;\n";
        assert_eq!(fire(LIB, src), ["D05@1"]);
        assert_eq!(fire("crates/server/src/fake.rs", src), ["D05@1"]);
        // The lane-kernel module is no exception: only an audited pragma
        // passes.
        assert_eq!(fire("crates/gis/src/lanes.rs", src), ["D05@1"]);
        let pinned = "// pvlint: allow(D05): sanctioned lane-kernel intrinsics\nuse core::arch::x86_64::_mm256_add_pd;\n";
        let lint = lint_source("crates/gis/src/lanes.rs", pinned);
        assert!(lint.findings.is_empty(), "{:?}", lint.findings);
        assert_eq!(lint.suppressed, 1);
        // Runtime detection goes through std::arch and is covered too.
        let detect = "let ok = std::arch::is_x86_feature_detected!(\"avx2\");\n";
        assert_eq!(fire(LIB, detect), ["D05@1"]);
    }

    #[test]
    fn r01_fires_in_server_store_and_pvplan_but_not_elsewhere() {
        let src = "let v = thing.unwrap();\nlet w = parts[0];\npanic!(\"no\");\n";
        assert_eq!(
            fire("crates/server/src/fake.rs", src),
            ["R01@1", "R01@2", "R01@3"]
        );
        assert_eq!(
            fire("crates/store/src/fake.rs", src),
            ["R01@1", "R01@2", "R01@3"]
        );
        assert_eq!(fire("src/bin/pvplan.rs", src), ["R01@1", "R01@2", "R01@3"]);
        assert!(fire(LIB, src).is_empty());
    }

    #[test]
    fn r01_slice_heuristic_skips_attrs_macros_and_patterns() {
        let src = "#[derive(Debug)]\nlet v = vec![1];\nlet [a] = pair;\nlet t: &[u8] = &[1];\n";
        assert!(fire("crates/server/src/fake.rs", src).is_empty());
    }

    #[test]
    fn r01_does_not_match_lookalike_identifiers() {
        let src = "let a = x.unwrap_or(0);\nlet b = x.expect_err(\"e\");\nif std::thread::panicking() {}\n";
        assert!(fire("crates/server/src/fake.rs", src).is_empty());
    }

    #[test]
    fn r02_fires_in_libraries_but_not_bins() {
        let src = "println!(\"x\");\ndbg!(1);\n";
        assert_eq!(fire(LIB, src), ["R02@1", "R02@2"]);
        assert!(fire("crates/bench/src/bin/fake.rs", src).is_empty());
    }

    #[test]
    fn r03_fires_on_stderr_prints_in_libraries_but_not_bins_or_obs() {
        let src = "eprintln!(\"x\");\neprint!(\"y\");\nlet w = std::io::stderr();\n";
        assert_eq!(fire(LIB, src), ["R03@1", "R03@2", "R03@3"]);
        assert_eq!(
            fire("crates/server/src/fake.rs", src),
            ["R03@1", "R03@2", "R03@3"]
        );
        // CLI error paths keep stderr (that is what stderr is for)...
        assert!(fire("crates/bench/src/bin/fake.rs", src).is_empty());
        assert!(fire("src/bin/pvplan.rs", src).is_empty());
        // ...and pv_obs sinks are the sanctioned stream owners.
        assert!(fire("crates/obs/src/fake.rs", src).is_empty());
        // An audited pragma still works for deliberate harness narration.
        let allowed =
            "// pvlint: allow(R03): progress narration, not data\neprintln!(\"running...\");\n";
        let lint = lint_source("crates/bench/src/fake.rs", allowed);
        assert!(lint.findings.is_empty(), "{:?}", lint.findings);
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn standalone_pragma_covers_the_next_line() {
        let src = "// pvlint: allow(D02): latency metric only, not in any response body\nlet t = std::time::Instant::now();\n";
        let lint = lint_source(LIB, src);
        assert!(lint.findings.is_empty(), "{:?}", lint.findings);
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        let src = "// pvlint: allow(D01): nothing here actually\nlet x = 1;\n";
        assert_eq!(fire(LIB, src), ["X01@1"]);
    }

    #[test]
    fn malformed_pragmas_are_findings() {
        for bad in [
            "// pvlint: allow(D01)\nlet x = 1;\n",       // missing reason
            "// pvlint: allow(D01):    \nlet x = 1;\n",  // empty reason
            "// pvlint: allow(Z99): nope\nlet x = 1;\n", // unknown rule
            "// pvlint: allow(X01): meta\nlet x = 1;\n", // unsuppressable
            "// pvlint: deny(D01): wrong verb\nlet x = 1;\n", // not allow(...)
        ] {
            assert_eq!(fire(LIB, bad), ["X02@1"], "{bad:?}");
        }
    }

    #[test]
    fn prose_mentioning_the_grammar_is_not_a_pragma() {
        // Doc comments that *describe* the suppression syntax (like the
        // ones in this very file) must not parse as pragmas.
        let src = "/// Write `// pvlint: allow(D01): why` to suppress.\nfn f() {}\n";
        assert!(fire(LIB, src).is_empty());
        let doc = "//! Suppress with pvlint-style allows, never bare.\nfn f() {}\n";
        assert!(fire(LIB, doc).is_empty());
    }

    #[test]
    fn pragma_in_block_comment_form_works() {
        let src = "let m: HashMap<u8, u8>; /* pvlint: allow(D01): fixture only */\n";
        let lint = lint_source(LIB, src);
        assert!(lint.findings.is_empty(), "{:?}", lint.findings);
        assert_eq!(lint.suppressed, 1);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f() { let m: HashMap<u8, u8> = make(); }\n";
        assert_eq!(fire(LIB, src), ["D01@2"]);
    }

    #[test]
    fn file_class_parses_paths() {
        let c = FileClass::of("crates/server/src/service.rs");
        assert_eq!(c.crate_name, "server");
        assert!(!c.is_test && !c.is_bin);
        let b = FileClass::of("src/bin/pvplan.rs");
        assert_eq!(b.crate_name, "root");
        assert!(b.is_bin);
        assert!(FileClass::of("tests/server.rs").is_test);
        assert!(FileClass::of("crates/bench/benches/solve.rs").is_test);
    }
}
