//! # px-analyze — workspace datapath-invariant checker
//!
//! A self-contained static analyzer (no external dependencies, no
//! syn/proc-macro machinery) that walks every Rust source file in the
//! PacketExpress workspace and enforces the nine datapath invariants
//! documented in `DESIGN.md`:
//!
//! * **R1 panic-freedom** — hot-path modules, and everything reachable
//!   from hot emission/recording functions through the call graph,
//!   contain no `unwrap`, `expect`, `panic!`-family macros, or panicking
//!   range slicing.
//! * **R2 unsafe hygiene** — every `unsafe` is immediately preceded by a
//!   `// SAFETY:` comment.
//! * **R3 alloc discipline** — functions on the `PacketSink` emission
//!   paths, and everything they transitively call, perform no heap
//!   allocation.
//! * **R4 lint-config conformance** — every crate root carries the agreed
//!   `#![forbid(unsafe_code)]`-class preamble and opts into
//!   `[workspace.lints]`.
//! * **R5 recording discipline** — the recorder's per-packet call
//!   sites (`record`, `observe*`, `push` in `px-obs`) and their callees
//!   perform no heap allocation.
//! * **R6 recovery discipline** — fault-handling functions (`degrade*`,
//!   `on_fault*`, in any module) and everything they reach are both
//!   panic-free and alloc-free.
//! * **R7 copy-freedom** — the split engine's emission paths never
//!   re-copy payload bytes; they emit scatter-gather views.
//! * **R8 determinism** — no wall-clock reads, OS randomness, or
//!   environment reads are reachable from the Deterministic-mode
//!   datapath; digest pinning and the chaos matrix depend on this.
//! * **R9 non-blocking** — no lock acquisition, blocking receive, or
//!   unbounded channel is reachable from per-packet functions; locks
//!   belong at batch boundaries and in the StatsRegistry merge.
//!
//! Rules R1/R3/R5/R6/R7/R8/R9 are *interprocedural*: `callgraph.rs`
//! builds a workspace-wide function index and call graph, and findings
//! in helper functions carry blame chains
//! (`push_into → combine_at_offset → fold_sum`).
//!
//! Run it with `cargo run -p px-analyze -- check` (add `--format json`
//! for machine-readable output). Violations print as
//! `file:line:rule: message` and a non-zero exit code.
//!
//! Intentional exceptions are waived inline:
//!
//! ```text
//! // px-analyze: allow(R1, reason = "cold teardown, join propagates worker panics")
//! ```
//!
//! Waivers require a reason and are themselves linted: an unused waiver
//! is an error, so the waiver list can never rot. A waiver covering a
//! *call* line also severs that edge for the named rule's transitive
//! propagation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod rules;

pub use rules::{Config, DepMap, Rule, SourceFile, Stats, Violation};

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Result of one full workspace check.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files analyzed.
    pub files_checked: usize,
    /// All violations, in walk order.
    pub violations: Vec<Violation>,
    /// Call-graph and waiver statistics.
    pub stats: Stats,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts per rule name (only rules with hits appear).
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for v in &self.violations {
            let name = v.rule.map_or("WAIVER", Rule::name);
            *counts.entry(name).or_insert(0) += 1;
        }
        counts
    }

    /// Renders the report as a JSON object (hand-rolled; the crate has no
    /// dependencies). Stable key order: tool, files_checked, graph and
    /// waiver statistics, per-rule counts, then the violation list.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"tool\": \"px-analyze\",\n");
        out.push_str(&format!("  \"files_checked\": {},\n", self.files_checked));
        out.push_str(&format!("  \"functions\": {},\n", self.stats.functions));
        out.push_str(&format!("  \"call_edges\": {},\n", self.stats.call_edges));
        out.push_str("  \"rules\": {");
        for (i, r) in Rule::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let n = self
                .violations
                .iter()
                .filter(|v| v.rule == Some(*r))
                .count();
            out.push_str(&format!("\"{}\": {}", r.name(), n));
        }
        out.push_str("},\n");
        out.push_str("  \"waivers_used\": {");
        for (i, (rule, n)) in self.stats.waivers_used.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{rule}\": {n}"));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"violation_count\": {},\n",
            self.violations.len()
        ));
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"file\": \"{}\", ", json_escape(&v.file)));
            out.push_str(&format!("\"line\": {}, ", v.line));
            out.push_str(&format!(
                "\"rule\": \"{}\", ",
                v.rule.map_or("WAIVER", Rule::name)
            ));
            if !v.chain.is_empty() {
                out.push_str("\"chain\": [");
                for (j, c) in v.chain.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\"", json_escape(c)));
                }
                out.push_str("], ");
            }
            out.push_str(&format!("\"message\": \"{}\"", json_escape(&v.message)));
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor"];

/// Path fragments excluded from the walk: the analyzer's own test
/// fixtures are intentionally in violation.
const SKIP_PATHS: &[&str] = &["crates/px-analyze/tests/fixtures"];

/// Runs the full workspace check rooted at `root` (the directory holding
/// the workspace `Cargo.toml`).
pub fn run_check(cfg: &Config, root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();

    let (dir_to_pkg, deps) = crate_graph(root);
    let mut sources = Vec::new();
    let mut r4_violations = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if is_crate_root(&rel_str) {
            r4_violations.extend(check_r4(root, &rel_str, &src));
        }
        let (unit, aux) = classify(&rel_str, &dir_to_pkg);
        sources.push(SourceFile {
            rel_path: rel_str,
            src,
            unit,
            aux,
        });
    }
    let files_checked = sources.len();
    let (mut violations, stats) = rules::analyze(cfg, &sources, &deps);
    violations.extend(r4_violations);
    Ok(Report {
        files_checked,
        violations,
        stats,
    })
}

/// Compilation unit and aux-ness of one workspace-relative path. Crate
/// `src/` trees map to their package name; `tests/`, `benches/`, and
/// `examples/` trees (of a crate or the workspace root) are aux — they
/// may call anything but are never callees.
fn classify(rel: &str, dir_to_pkg: &BTreeMap<String, String>) -> (String, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 3 && parts[0] == "crates" {
        let pkg = dir_to_pkg
            .get(parts[1])
            .cloned()
            .unwrap_or_else(|| parts[1].to_string());
        let aux = parts[2] != "src";
        return (pkg, aux);
    }
    let aux = matches!(parts.first(), Some(&"tests" | &"benches" | &"examples"));
    ("workspace".to_string(), aux)
}

/// Parses `crates/*/Cargo.toml` for package names and path dependencies,
/// returning (crate dir → package name) and the *transitive* dependency
/// map used to filter call-graph edges to legal crate directions.
fn crate_graph(root: &Path) -> (BTreeMap<String, String>, DepMap) {
    let mut dir_to_pkg = BTreeMap::new();
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return (dir_to_pkg, DepMap::default());
    };
    let mut manifests = Vec::new();
    for entry in entries.flatten() {
        let manifest = entry.path().join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            let dir = entry.file_name().to_string_lossy().to_string();
            manifests.push((dir, text));
        }
    }
    for (dir, text) in &manifests {
        if let Some(name) = manifest_package_name(text) {
            dir_to_pkg.insert(dir.clone(), name);
        }
    }
    let packages: BTreeSet<&str> = dir_to_pkg.values().map(String::as_str).collect();
    for (dir, text) in &manifests {
        let Some(pkg) = dir_to_pkg.get(dir) else {
            continue;
        };
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                // Only [dependencies] — dev-deps are aux-only and would
                // add illegal lib→lib directions.
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let key = line
                .split(['=', '.', ' '])
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            if packages.contains(key.as_str()) {
                direct.entry(pkg.clone()).or_default().insert(key);
            }
        }
    }
    // Transitive closure.
    let mut deps = direct.clone();
    loop {
        let mut grew = false;
        for pkg in packages.iter() {
            let cur: Vec<String> = deps
                .get(*pkg)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            for d in cur {
                let extra: Vec<String> = deps
                    .get(&d)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default();
                let set = deps.entry(pkg.to_string()).or_default();
                for e in extra {
                    grew |= set.insert(e);
                }
            }
        }
        if !grew {
            break;
        }
    }
    (dir_to_pkg, DepMap { deps })
}

/// The `name = "…"` under `[package]`.
fn manifest_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if SKIP_PATHS.iter().any(|p| rel_str.starts_with(p)) {
            continue;
        }
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Whether this workspace-relative path is a crate root (`src/lib.rs` of
/// the root package or of a `crates/*` member).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// R4: crate-root preamble + Cargo.toml `[lints] workspace = true`.
fn check_r4(root: &Path, rel: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    if rules::has_r4_waiver(src) {
        return out;
    }
    let has_unsafe_gate =
        src.contains("#![forbid(unsafe_code)]") || src.contains("#![deny(unsafe_code)]");
    if !has_unsafe_gate {
        out.push(Violation {
            file: rel.into(),
            line: 1,
            rule: Some(Rule::R4),
            message: "crate root lacks `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]`)"
                .into(),
            chain: Vec::new(),
        });
    }
    if !src.contains("#![warn(missing_docs)]") {
        out.push(Violation {
            file: rel.into(),
            line: 1,
            rule: Some(Rule::R4),
            message: "crate root lacks `#![warn(missing_docs)]`".into(),
            chain: Vec::new(),
        });
    }
    // The matching Cargo.toml sits two levels up from src/lib.rs.
    let manifest_rel = rel.trim_end_matches("src/lib.rs").to_string() + "Cargo.toml";
    let manifest = fs::read_to_string(root.join(&manifest_rel)).unwrap_or_default();
    let has_workspace_lints = manifest.split("[lints]").nth(1).is_some_and(|after| {
        after
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty())
            .is_some_and(|l| l.replace(' ', "") == "workspace=true")
    });
    if !has_workspace_lints {
        out.push(Violation {
            file: manifest_rel,
            line: 1,
            rule: Some(Rule::R4),
            message: "crate manifest lacks `[lints] workspace = true`".into(),
            chain: Vec::new(),
        });
    }
    out
}
