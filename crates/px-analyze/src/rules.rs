//! The nine datapath-invariant rules and the waiver machinery.
//!
//! | Rule | Scope | What it rejects |
//! |------|-------|-----------------|
//! | R1   | hot-path modules + everything reachable from hot emission/recording functions | `unwrap`/`expect`/`panic!`-family and panicking range slicing `b[a..c]` |
//! | R2   | every workspace file | `unsafe` not immediately preceded by a `// SAFETY:` comment |
//! | R3   | emission functions + everything they reach | allocation (`Vec::new`, `vec!`, `Box::new`, `to_vec`, `clone`, `String` construction, `format!`) |
//! | R4   | crate roots | missing `#![forbid(unsafe_code)]`-class preamble or `[lints] workspace = true` |
//! | R5   | recording functions + everything they reach | the R3 allocation set — `record`/`observe*`/`push` run per packet inside the datapath |
//! | R6   | fault-handling functions + everything they reach | *both* the R1 panic set and the R3 allocation set — recovery code runs while the system is already degraded |
//! | R7   | split-engine emission functions + everything they reach | payload byte copies (`.extend_from_slice()`, `.copy_from_slice()`) |
//! | R8   | everything reachable from the Deterministic-mode datapath, plus every function in the seeded attack/fault-generator modules | wall-clock reads (`Instant::now`, `SystemTime::now`), OS randomness (`thread_rng`, `RandomState`-default `HashMap`/`HashSet`), environment reads |
//! | R9   | everything reachable from per-packet functions | lock acquisition (`.lock()`), blocking receives (`.recv()`), unbounded-channel construction, socket serving/dialing (`TcpListener::bind`, `TcpStream::connect`) — locks belong at batch boundaries and HTTP serving on the control plane |
//!
//! R1/R3/R5/R6/R7 are *lexical* where they always were (so existing
//! waivers keep their meaning) and additionally propagate **transitively**
//! through the workspace call graph from their entry points; transitive
//! findings carry a blame chain:
//!
//! ```text
//! `Vec::new` allocates in `fold_sum`, reached from the emission path
//! via `push_into → combine_at_offset → fold_sum`
//! ```
//!
//! Code under `#[cfg(test)]` is exempt from everything but R2.
//! Intentional exceptions use inline waivers:
//!
//! ```text
//! // px-analyze: allow(R1, reason = "cold teardown, join propagates worker panics")
//! ```
//!
//! A waiver covers its own line and the next code line (attributes are
//! skipped, so a waiver above `#[inline]` covers the function it
//! annotates), must carry a non-empty reason, and is itself an error if
//! it never fires. A waiver whose covered line contains a *call* also
//! severs that call edge for the named rule's transitive propagation —
//! that is how a fault-handling function documents "this rebuild may
//! allocate" without waiving every allocation in the callee.

use crate::callgraph::{self, CallGraph, Fact, FactKind, FnDef, Reach};
use crate::lexer::{lex, Tok, Token};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Panic-freedom in hot-path modules and everything they reach.
    R1,
    /// `// SAFETY:` comment on every `unsafe`.
    R2,
    /// Alloc discipline on the emission paths.
    R3,
    /// Crate-root lint preamble conformance.
    R4,
    /// Alloc discipline on the observability recording paths.
    R5,
    /// Panic- and alloc-freedom in fault-handling/recovery paths.
    R6,
    /// Copy-freedom on the split-engine emission paths.
    R7,
    /// Determinism audit: no wall-clock, OS randomness, or env reads
    /// reachable from the Deterministic-mode datapath.
    R8,
    /// Blocking audit: no locks, blocking receives, or unbounded
    /// channels reachable from per-packet functions.
    R9,
}

impl Rule {
    /// The rule's display name (`R1`…`R9`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
        }
    }

    fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            "R8" => Some(Rule::R8),
            "R9" => Some(Rule::R9),
            _ => None,
        }
    }

    /// All rules, for report tabulation.
    pub const ALL: [Rule; 9] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R9,
    ];
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// The rule violated (`None` for waiver-hygiene errors, reported
    /// under the pseudo-rule `WAIVER`).
    pub rule: Option<Rule>,
    /// Human-readable description (includes the blame chain, if any).
    pub message: String,
    /// For transitive findings: the call chain entry → … → offending
    /// function, as display names. Empty for direct/lexical findings.
    pub chain: Vec<String>,
}

impl Violation {
    /// The `file:line:rule: message` form the CLI prints.
    pub fn render(&self) -> String {
        let rule = self.rule.map_or("WAIVER", Rule::name);
        format!("{}:{}:{}: {}", self.file, self.line, rule, self.message)
    }
}

/// Analyzer configuration: which modules each rule bites on.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path suffixes (workspace-relative) of R1 hot-path modules.
    pub r1_modules: Vec<&'static str>,
    /// Path suffixes of R3 alloc-discipline modules: R1's datapath
    /// modules, without the recorder's, which R5 holds to its own
    /// budget.
    pub r3_modules: Vec<&'static str>,
    /// Function names that form the `PacketSink` emission paths; R3
    /// applies inside these plus any function ending in `_into`.
    pub emission_fns: Vec<&'static str>,
    /// Path suffixes of R5 recording-discipline modules (the px-obs
    /// recorder datapath). R5 applies inside functions named
    /// `record`, `observe*`, or `push` — the per-packet recording call
    /// sites; the drain/render side may allocate freely.
    pub r5_modules: Vec<&'static str>,
    /// Function-name prefixes of R6 fault-handling/recovery paths. R6
    /// applies in *every* module — degradation and recovery code
    /// runs while the system is already in trouble, wherever it lives —
    /// and enforces both the R1 panic set and the R3 allocation set.
    pub r6_fn_prefixes: Vec<&'static str>,
    /// Path suffixes of R7 copy-freedom modules: the split engine's
    /// emission path, which must hand payload bytes onward as
    /// scatter-gather views rather than copying them.
    pub r7_modules: Vec<&'static str>,
    /// Path suffixes of modules whose *every* function is an R8 entry
    /// point: the seeded adversarial/fault generators. Their whole
    /// contract is that identical seeds give identical schedules — the
    /// attack matrix replays each schedule at four core counts and
    /// compares digests — so a wall-clock read, ambient RNG, or
    /// `RandomState` map anywhere inside (or reachable from) them
    /// silently breaks every replay-based gate in the tree.
    pub r8_modules: Vec<&'static str>,
    /// Emission functions that sit at batch *boundaries* rather than on
    /// the per-packet path: R9 does not use them as entry points (locks
    /// are legal there by design).
    pub r9_boundary_fns: Vec<&'static str>,
    /// Path suffixes of modules the transitive BFS never *enters*:
    /// deliberately off-invariant code (the pcap capture tap) that hot
    /// entry points may name but whose internals are not datapath.
    /// Lexical rules still apply inside.
    pub transitive_exempt: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            r1_modules: vec![
                "crates/core/src/merge.rs",
                "crates/core/src/coalesce.rs",
                "crates/core/src/split.rs",
                "crates/core/src/caravan_gw.rs",
                "crates/core/src/chassis.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/flowtable.rs",
                "crates/px-wire/src/tcp.rs",
                "crates/px-wire/src/udp.rs",
                "crates/px-wire/src/ipv4.rs",
                "crates/px-wire/src/frag.rs",
                "crates/px-wire/src/tso.rs",
                "crates/px-wire/src/caravan.rs",
                "crates/px-wire/src/checksum.rs",
                "crates/px-wire/src/batchparse.rs",
                "crates/px-wire/src/buffer.rs",
                "crates/px-wire/src/pool.rs",
                "crates/px-wire/src/bytes.rs",
                // The recorder runs inline in every hot loop, so its
                // recording side is held to the same panic-freedom bar
                // as the datapath proper.
                "crates/px-obs/src/ring.rs",
                "crates/px-obs/src/hist.rs",
                "crates/px-obs/src/recorder.rs",
                // The span record and the SLO watchdog also run inline
                // on the workers.
                "crates/px-obs/src/span.rs",
                "crates/px-obs/src/slo.rs",
            ],
            r3_modules: vec![
                "crates/core/src/merge.rs",
                "crates/core/src/coalesce.rs",
                "crates/core/src/split.rs",
                "crates/core/src/caravan_gw.rs",
                "crates/core/src/chassis.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/flowtable.rs",
                "crates/px-wire/src/tcp.rs",
                "crates/px-wire/src/udp.rs",
                "crates/px-wire/src/ipv4.rs",
                "crates/px-wire/src/frag.rs",
                "crates/px-wire/src/tso.rs",
                "crates/px-wire/src/caravan.rs",
                "crates/px-wire/src/checksum.rs",
                "crates/px-wire/src/batchparse.rs",
                "crates/px-wire/src/buffer.rs",
                "crates/px-wire/src/pool.rs",
                "crates/px-wire/src/bytes.rs",
            ],
            emission_fns: vec![
                "accept",
                "emit",
                "forward",
                "forward_recorded",
                "append",
                "finalize_emit",
                "emit_pending",
                "process_batch",
                "push_sg",
            ],
            r5_modules: vec![
                "crates/px-obs/src/ring.rs",
                "crates/px-obs/src/hist.rs",
                "crates/px-obs/src/recorder.rs",
                "crates/px-obs/src/span.rs",
                "crates/px-obs/src/slo.rs",
            ],
            // `forward_stash_leftovers` is the stash-overflow fallback
            // (a flow already under reordering or attack pressure) and
            // `on_report` is the F-PMTUD prober's estimate update from
            // an attested report — both run precisely when an adversary
            // is pushing,
            // so they get the degraded-path panic/alloc discipline.
            // `run_shard` is the worker's run-to-completion loop, and
            // nothing stands behind it: no dispatcher re-feeds a core
            // and no supervisor restarts one, so the whole loop is held
            // to the recovery bar.
            r6_fn_prefixes: vec![
                "degrade",
                "on_fault",
                "run_shard",
                "forward_stash_leftovers",
                "on_report",
            ],
            r7_modules: vec!["crates/core/src/split.rs"],
            r8_modules: vec!["crates/px-faults/src/attack.rs"],
            // process_batch drains a whole batch, and run_shard walks
            // the bursts: between bursts is where per-batch bookkeeping
            // (the registry publish and its lock) legitimately lives.
            r9_boundary_fns: vec!["process_batch", "run_shard"],
            transitive_exempt: vec![
                // The pcap capture tap materializes frames by design;
                // it is a sim-side diagnostic, not a datapath stage.
                "crates/px-sim/src/pcap.rs",
            ],
        }
    }
}

impl Config {
    fn is_r1(&self, rel_path: &str) -> bool {
        self.r1_modules.iter().any(|m| rel_path.ends_with(m))
    }

    fn is_r3(&self, rel_path: &str) -> bool {
        self.r3_modules.iter().any(|m| rel_path.ends_with(m))
    }

    fn is_emission_fn(&self, name: &str) -> bool {
        name.ends_with("_into") || self.emission_fns.contains(&name)
    }

    fn is_r5(&self, rel_path: &str) -> bool {
        self.r5_modules.iter().any(|m| rel_path.ends_with(m))
    }

    fn is_recording_fn(&self, name: &str) -> bool {
        // `evaluate` is the SLO watchdog's per-batch check: it runs
        // inline on the worker between batches, so it is held to the
        // same alloc/blocking discipline as the recording fns proper.
        name == "record" || name.starts_with("observe") || name == "push" || name == "evaluate"
    }

    fn is_r6_fn(&self, name: &str) -> bool {
        self.r6_fn_prefixes.iter().any(|p| name.starts_with(p))
    }

    fn is_r7(&self, rel_path: &str) -> bool {
        self.r7_modules.iter().any(|m| rel_path.ends_with(m))
    }

    fn is_r8_module(&self, rel_path: &str) -> bool {
        self.r8_modules.iter().any(|m| rel_path.ends_with(m))
    }

    fn is_exempt(&self, rel_path: &str) -> bool {
        self.transitive_exempt.iter().any(|m| rel_path.ends_with(m))
    }
}

/// A parsed `// px-analyze: allow(...)` waiver.
#[derive(Debug)]
struct Waiver {
    rules: Vec<Rule>,
    reason_ok: bool,
    /// Line the waiver comment sits on.
    line: u32,
    /// The next code line it covers (filled in during the scan).
    covers: Option<u32>,
    used: bool,
}

/// Parses a waiver out of a comment body, if present.
fn parse_waiver(text: &str, line: u32) -> Option<Waiver> {
    // Anchored at the start of the comment: doc comments (`///`, `//!`)
    // keep their extra `/`/`!` in the captured text, so waiver examples
    // quoted inside documentation do not register as live waivers.
    let rest = text.trim_start().strip_prefix("px-analyze:")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let inner = rest.split(')').next().unwrap_or("");
    let mut rules = Vec::new();
    let mut reason_ok = false;
    for part in inner.split(',') {
        let part = part.trim();
        if let Some(r) = Rule::parse(part) {
            rules.push(r);
        } else if let Some(rhs) = part.strip_prefix("reason") {
            let rhs = rhs.trim_start().strip_prefix('=').unwrap_or("").trim();
            // Reason must be a non-empty quoted string. The closing quote
            // may have been cut off by the `)` split when the reason
            // itself contains none — look at the raw text instead.
            reason_ok = rhs.starts_with('"') && rhs.len() > 1;
        }
    }
    // A reason containing commas gets split up; detect `reason = "…"`
    // against the whole comment as the authoritative check.
    if let Some(rat) = text.find("reason") {
        let rhs = text[rat + "reason".len()..].trim_start();
        if let Some(q) = rhs.strip_prefix('=') {
            let q = q.trim_start();
            if let Some(body) = q.strip_prefix('"') {
                reason_ok = body.find('"').is_some_and(|end| end > 0);
            }
        }
    }
    Some(Waiver {
        rules,
        reason_ok,
        line,
        covers: None,
        used: false,
    })
}

/// Collects waivers from one file's token stream and assigns each the
/// code line it covers. Attribute tokens — both `#[…]` outer and `#![…]`
/// inner forms — do not count as the covered code line: a waiver above
/// `#[inline] fn f…` covers the `fn` line.
fn collect_waivers(toks: &[Token]) -> Vec<Waiver> {
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut attr_depth = 0usize;
    let mut prev_was_hash = false;
    for t in toks {
        match &t.kind {
            Tok::LineComment(text) | Tok::BlockComment(text) => {
                if let Some(w) = parse_waiver(text, t.line) {
                    waivers.push(w);
                }
            }
            kind => {
                let is_attr = match kind {
                    Tok::Punct('#') => {
                        prev_was_hash = true;
                        true
                    }
                    // The `!` of an inner attribute `#![…]`: still part
                    // of the attribute, and `prev_was_hash` must survive
                    // to the `[` that follows.
                    Tok::Punct('!') if prev_was_hash => true,
                    Tok::Punct('[') if prev_was_hash || attr_depth > 0 => {
                        attr_depth += 1;
                        prev_was_hash = false;
                        true
                    }
                    Tok::Punct(']') if attr_depth > 0 => {
                        attr_depth -= 1;
                        true
                    }
                    _ => {
                        let inside = attr_depth > 0;
                        prev_was_hash = false;
                        inside
                    }
                };
                if !is_attr {
                    for w in waivers.iter_mut().filter(|w| w.covers.is_none()) {
                        if t.line >= w.line {
                            w.covers = Some(t.line);
                        }
                    }
                }
            }
        }
    }
    waivers
}

/// One input file for [`analyze`].
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// File contents.
    pub src: String,
    /// Compilation unit (crate package name) for edge filtering.
    pub unit: String,
    /// Test/bench/example code: may call anything, is never a callee.
    pub aux: bool,
}

/// Transitive crate-dependency map: `deps[a]` contains every crate `a`
/// may call into. An empty map permits only same-unit edges.
#[derive(Debug, Default)]
pub struct DepMap {
    /// Crate name → transitively reachable dependency names.
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

impl DepMap {
    /// Whether code in crate `a` can call code in crate `b`.
    pub fn allows(&self, a: &str, b: &str) -> bool {
        a == b || self.deps.get(a).is_some_and(|s| s.contains(b))
    }
}

/// Whole-workspace analysis statistics for the JSON report.
#[derive(Debug, Default)]
pub struct Stats {
    /// Non-test function definitions in the call graph.
    pub functions: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Used waivers per rule name (the waiver census).
    pub waivers_used: BTreeMap<&'static str, usize>,
}

struct WaiverBank {
    per_file: HashMap<String, Vec<Waiver>>,
}

impl WaiverBank {
    /// Finds a well-formed waiver in `file` covering `line` that names
    /// `rule`, marks it used, and reports whether one fired.
    fn try_use(&mut self, file: &str, line: u32, rule: Rule) -> bool {
        let Some(ws) = self.per_file.get_mut(file) else {
            return false;
        };
        let mut hit = false;
        for w in ws.iter_mut() {
            let covers_line = w.line == line || w.covers == Some(line);
            if covers_line && w.rules.contains(&rule) && w.reason_ok {
                w.used = true;
                hit = true;
            }
        }
        hit
    }
}

/// Analyzes a set of source files as one program: lexical rules exactly
/// as before, plus call-graph-transitive propagation of
/// R1/R3/R5/R6/R7 and the R8/R9 audits. Returns violations in file
/// order and the graph/waiver statistics.
pub fn analyze(cfg: &Config, files: &[SourceFile], deps: &DepMap) -> (Vec<Violation>, Stats) {
    // --- Scan every file; flatten defs; collect waivers. ---
    let mut defs: Vec<FnDef> = Vec::new();
    let mut def_file: Vec<usize> = Vec::new();
    let mut toplevel: Vec<(usize, Vec<Fact>)> = Vec::new();
    let mut bank = WaiverBank {
        per_file: HashMap::new(),
    };
    for (fi, f) in files.iter().enumerate() {
        let scan = callgraph::scan_file(&f.rel_path, &f.src);
        for d in scan.defs {
            defs.push(d);
            def_file.push(fi);
        }
        toplevel.push((fi, scan.toplevel_facts));
        bank.per_file
            .insert(f.rel_path.clone(), collect_waivers(&lex(&f.src)));
    }

    // --- Build the graph with crate-dependency edge filtering. ---
    let unit_ok = |a: usize, b: usize| -> bool {
        let (fa, fb) = (&files[def_file[a]], &files[def_file[b]]);
        if fb.aux {
            return fa.rel_path == fb.rel_path;
        }
        if fa.aux {
            return true;
        }
        deps.allows(&fa.unit, &fb.unit)
    };
    let graph = CallGraph::build(&defs, &unit_ok);

    // --- Entry sets. ---
    let mut hot = Vec::new(); // emission fns in R3 modules
    let mut rec = Vec::new(); // recording fns in R5 modules
    let mut r6e = Vec::new(); // fault-handling fns anywhere
    let mut r7e = Vec::new(); // emission fns in R7 modules
    let mut r8x = Vec::new(); // every fn in the seeded-generator modules
    for (i, d) in defs.iter().enumerate() {
        if d.is_test || files[def_file[i]].aux || cfg.is_exempt(&d.file) {
            continue;
        }
        if cfg.is_r3(&d.file) && cfg.is_emission_fn(&d.name) {
            hot.push(i);
        }
        if cfg.is_r5(&d.file) && cfg.is_recording_fn(&d.name) {
            rec.push(i);
        }
        if cfg.is_r6_fn(&d.name) {
            r6e.push(i);
        }
        if cfg.is_r7(&d.file) && cfg.is_emission_fn(&d.name) {
            r7e.push(i);
        }
        if cfg.is_r8_module(&d.file) {
            r8x.push(i);
        }
    }
    let hot_rec: Vec<usize> = hot.iter().chain(rec.iter()).copied().collect();
    let r8e: Vec<usize> = hot_rec
        .iter()
        .chain(r6e.iter())
        .chain(r8x.iter())
        .copied()
        .collect();
    let r9e: Vec<usize> = hot_rec
        .iter()
        .copied()
        .filter(|&i| !cfg.r9_boundary_fns.contains(&defs[i].name.as_str()))
        .collect();

    // --- Per-rule reachability (waivers at call sites sever edges). ---
    let blocked = |d: usize| cfg.is_exempt(&defs[d].file);
    let run = |entries: &[usize], rule: Rule, bank: &mut WaiverBank| -> Vec<Reach> {
        graph.reach(entries, &blocked, &mut |caller, line| {
            bank.try_use(&defs[caller].file, line, rule)
        })
    };
    let reach_r1 = run(&hot_rec, Rule::R1, &mut bank);
    let reach_r3 = run(&hot, Rule::R3, &mut bank);
    let reach_r5 = run(&rec, Rule::R5, &mut bank);
    let reach_r6 = run(&r6e, Rule::R6, &mut bank);
    let reach_r7 = run(&r7e, Rule::R7, &mut bank);
    let reach_r8 = run(&r8e, Rule::R8, &mut bank);
    let reach_r9 = run(&r9e, Rule::R9, &mut bank);

    // --- Facts → violations, file by file. ---
    let chain_of = |state: &[Reach], d: usize| -> Vec<String> {
        match state[d] {
            Reach::Via { .. } => CallGraph::chain(&defs, state, d),
            _ => Vec::new(),
        }
    };
    let via = |state: &[Reach], d: usize| matches!(state[d], Reach::Via { .. });
    let entry = |state: &[Reach], d: usize| matches!(state[d], Reach::Entry);

    let mut out: Vec<Violation> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let mut raw: Vec<Violation> = Vec::new();
        let file_r1 = cfg.is_r1(&f.rel_path);
        let file_r3 = cfg.is_r3(&f.rel_path);
        let file_r5 = cfg.is_r5(&f.rel_path);
        let file_r7 = cfg.is_r7(&f.rel_path);

        for (di, d) in defs.iter().enumerate() {
            if def_file[di] != fi {
                continue;
            }
            let stack: Vec<&str> = d
                .enclosing
                .iter()
                .map(String::as_str)
                .chain(std::iter::once(d.name.as_str()))
                .collect();
            let in_emission = stack.iter().any(|n| cfg.is_emission_fn(n));
            let in_recording = stack.iter().any(|n| cfg.is_recording_fn(n));
            let in_r6 = stack.iter().any(|n| cfg.is_r6_fn(n));

            for fact in &d.facts {
                if fact.kind == FactKind::UnsafeUndoc {
                    raw.push(r2_violation(&f.rel_path, fact.line));
                    continue;
                }
                if fact.in_test || d.is_test {
                    continue;
                }
                let finding = match fact.kind {
                    FactKind::Panic | FactKind::RangeSlice => {
                        if file_r1 {
                            Some((Rule::R1, Vec::new()))
                        } else if in_r6 {
                            Some((Rule::R6, Vec::new()))
                        } else if via(&reach_r1, di) {
                            Some((Rule::R1, chain_of(&reach_r1, di)))
                        } else if via(&reach_r6, di) {
                            Some((Rule::R6, chain_of(&reach_r6, di)))
                        } else {
                            None
                        }
                    }
                    FactKind::Alloc => {
                        if file_r3 && in_emission {
                            Some((Rule::R3, Vec::new()))
                        } else if file_r5 && in_recording {
                            Some((Rule::R5, Vec::new()))
                        } else if in_r6 {
                            Some((Rule::R6, Vec::new()))
                        } else if via(&reach_r3, di) {
                            Some((Rule::R3, chain_of(&reach_r3, di)))
                        } else if via(&reach_r5, di) {
                            Some((Rule::R5, chain_of(&reach_r5, di)))
                        } else if via(&reach_r6, di) {
                            Some((Rule::R6, chain_of(&reach_r6, di)))
                        } else {
                            None
                        }
                    }
                    FactKind::PayloadCopy => {
                        if file_r7 && in_emission {
                            Some((Rule::R7, Vec::new()))
                        } else if via(&reach_r7, di) {
                            Some((Rule::R7, chain_of(&reach_r7, di)))
                        } else {
                            None
                        }
                    }
                    FactKind::WallClock
                    | FactKind::OsRandom
                    | FactKind::HashDefault
                    | FactKind::EnvRead => {
                        if entry(&reach_r8, di) {
                            Some((Rule::R8, Vec::new()))
                        } else if via(&reach_r8, di) {
                            Some((Rule::R8, chain_of(&reach_r8, di)))
                        } else {
                            None
                        }
                    }
                    FactKind::Lock
                    | FactKind::BlockingRecv
                    | FactKind::UnboundedChan
                    | FactKind::BlockingServe => {
                        if entry(&reach_r9, di) {
                            Some((Rule::R9, Vec::new()))
                        } else if via(&reach_r9, di) {
                            Some((Rule::R9, chain_of(&reach_r9, di)))
                        } else {
                            None
                        }
                    }
                    FactKind::UnsafeUndoc => unreachable!(),
                };
                if let Some((rule, chain)) = finding {
                    raw.push(fact_violation(rule, fact, d, chain));
                }
            }
        }

        // Toplevel facts (consts/statics): R1 applies module-wide, R2
        // everywhere; nothing else has a function scope to bind to.
        for fact in &toplevel[fi].1 {
            if fact.kind == FactKind::UnsafeUndoc {
                raw.push(r2_violation(&f.rel_path, fact.line));
            } else if !fact.in_test
                && file_r1
                && matches!(fact.kind, FactKind::Panic | FactKind::RangeSlice)
            {
                raw.push(Violation {
                    file: f.rel_path.clone(),
                    line: fact.line,
                    rule: Some(Rule::R1),
                    message: panic_msg(&fact.what, Rule::R1, None),
                    chain: Vec::new(),
                });
            }
        }

        // Waiver suppression, then this file's waiver hygiene.
        for v in raw {
            let waived = v
                .rule
                .is_some_and(|rule| bank.try_use(&v.file, v.line, rule));
            if !waived {
                out.push(v);
            }
        }
        if let Some(ws) = bank.per_file.get(&f.rel_path) {
            for w in ws {
                if !w.reason_ok {
                    out.push(Violation {
                        file: f.rel_path.clone(),
                        line: w.line,
                        rule: None,
                        message: "waiver without a non-empty `reason = \"…\"`".into(),
                        chain: Vec::new(),
                    });
                } else if !w.used && !w.rules.contains(&Rule::R4) {
                    out.push(Violation {
                        file: f.rel_path.clone(),
                        line: w.line,
                        rule: None,
                        message:
                            "unused waiver: nothing on the covered lines violates the waived rule"
                                .into(),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    // --- Stats. ---
    let mut stats = Stats {
        functions: defs.iter().filter(|d| !d.is_test).count(),
        call_edges: graph.edge_count,
        waivers_used: BTreeMap::new(),
    };
    for ws in bank.per_file.values() {
        for w in ws.iter().filter(|w| w.used) {
            for r in &w.rules {
                *stats.waivers_used.entry(r.name()).or_insert(0) += 1;
            }
        }
    }
    (out, stats)
}

fn r2_violation(file: &str, line: u32) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule: Some(Rule::R2),
        message: "`unsafe` without an immediately preceding `// SAFETY:` comment".into(),
        chain: Vec::new(),
    }
}

/// Builds the violation for a rule-claimed fact, direct or transitive.
fn fact_violation(rule: Rule, fact: &Fact, d: &FnDef, chain: Vec<String>) -> Violation {
    let what = &fact.what;
    let name = d.display();
    let message = if chain.is_empty() {
        match rule {
            Rule::R1 => panic_msg(what, rule, Some(&d.name)),
            Rule::R6 if matches!(fact.kind, FactKind::Panic | FactKind::RangeSlice) => {
                panic_msg(what, rule, Some(&d.name))
            }
            Rule::R3 | Rule::R5 | Rule::R6 => alloc_msg(what, rule, &d.name),
            Rule::R7 => format!(
                "`{what}` copies payload bytes in split emission function `{}`; emit an SgPacket view instead",
                d.name
            ),
            Rule::R8 => format!(
                "`{what}` is nondeterministic in Deterministic-mode datapath function `{}`; \
                 derive from the event stream or gate behind Parallel mode",
                d.name
            ),
            Rule::R9 if fact.kind == FactKind::BlockingServe => format!(
                "`{what}` opens a socket in per-packet function `{}`; serving belongs on the \
                 control plane (px-obs::serve), never on the datapath",
                d.name
            ),
            Rule::R9 => format!(
                "`{what}` can block in per-packet function `{}`; locks belong at batch boundaries",
                d.name
            ),
            Rule::R2 | Rule::R4 => unreachable!("handled elsewhere"),
        }
    } else {
        let path = chain.join(" → ");
        match rule {
            Rule::R1 => format!(
                "`{what}` in `{name}` is reachable from the hot path via `{path}`; \
                 return a typed error or drop-and-count instead"
            ),
            Rule::R3 => format!(
                "`{what}` allocates in `{name}`, reached from the emission path via `{path}`"
            ),
            Rule::R5 => format!(
                "`{what}` allocates in `{name}`, reached from the recording path via `{path}`"
            ),
            Rule::R6 if matches!(fact.kind, FactKind::Panic | FactKind::RangeSlice) => format!(
                "`{what}` in `{name}` is reachable from fault-handling code via `{path}`; \
                 recovery code must not be able to panic"
            ),
            Rule::R6 => format!(
                "`{what}` allocates in `{name}`, reached from fault-handling code via `{path}`; \
                 recovery must not lean on a possibly-exhausted allocator"
            ),
            Rule::R7 => format!(
                "`{what}` copies payload bytes in `{name}`, reached from split emission via \
                 `{path}`; emit an SgPacket view instead"
            ),
            Rule::R8 => format!(
                "`{what}` in `{name}` is nondeterministic, reachable from the Deterministic-mode \
                 datapath via `{path}`; derive from the event stream or gate behind Parallel mode"
            ),
            Rule::R9 if fact.kind == FactKind::BlockingServe => format!(
                "`{what}` in `{name}` opens a socket, reachable from a per-packet path via \
                 `{path}`; HTTP serving must stay on the control plane"
            ),
            Rule::R9 => format!(
                "`{what}` in `{name}` can block, reachable from a per-packet path via `{path}`; \
                 locks belong at batch boundaries"
            ),
            Rule::R2 | Rule::R4 => unreachable!("handled elsewhere"),
        }
    };
    Violation {
        file: d.file.clone(),
        line: fact.line,
        rule: Some(rule),
        message,
        chain,
    }
}

/// Analyzes one Rust source file in isolation. `rel_path` is
/// workspace-relative with forward slashes. Transitive propagation runs
/// within the file; cross-file edges obviously need [`analyze`].
pub fn check_source(cfg: &Config, rel_path: &str, src: &str) -> Vec<Violation> {
    let files = [SourceFile {
        rel_path: rel_path.to_string(),
        src: src.to_string(),
        unit: "solo".to_string(),
        aux: false,
    }];
    analyze(cfg, &files, &DepMap::default()).0
}

/// Whether the token stream contains an R4 waiver (used by the crate-root
/// check, which has no single offending line inside the file).
pub fn has_r4_waiver(src: &str) -> bool {
    lex(src).iter().any(|t| match &t.kind {
        Tok::LineComment(text) | Tok::BlockComment(text) => {
            parse_waiver(text, t.line).is_some_and(|w| w.rules.contains(&Rule::R4) && w.reason_ok)
        }
        _ => false,
    })
}

fn panic_msg(what: &str, rule: Rule, fn_name: Option<&str>) -> String {
    if rule == Rule::R6 {
        let f = fn_name.unwrap_or("<unknown>");
        return format!(
            "`{what}` in fault-handling function `{f}`; recovery code must not be able to panic"
        );
    }
    if what == "range slicing" {
        "range slicing in a hot-path module; use `get()`/`px_wire::bytes` and handle the miss"
            .into()
    } else {
        format!("`{what}` in a hot-path module; return a typed error or drop-and-count instead")
    }
}

fn alloc_msg(what: &str, rule: Rule, fn_name: &str) -> String {
    let path = match rule {
        Rule::R5 => "recording-path",
        Rule::R6 => "fault-handling",
        _ => "emission-path",
    };
    format!("`{what}` allocates inside {path} function `{fn_name}`")
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/core/src/merge.rs";
    const COLD: &str = "crates/px-sim/src/stats.rs";

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_source(&Config::default(), path, src)
    }

    #[test]
    fn r1_flags_unwrap_in_hot_module_only() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(check(HOT, src).len(), 1);
        assert!(check(COLD, src).is_empty());
    }

    #[test]
    fn r1_ignores_unwrap_in_tests_strings_and_comments() {
        let src = r#"
            // a comment mentioning .unwrap()
            fn f() { let s = ".unwrap()"; }
            #[cfg(test)]
            mod tests {
                fn g(x: Option<u8>) { x.unwrap(); }
            }
        "#;
        assert!(check(HOT, src).is_empty());
    }

    #[test]
    fn r1_slicing_rules() {
        assert_eq!(check(HOT, "fn f(b: &[u8]) { let _ = &b[1..3]; }").len(), 1);
        assert_eq!(check(HOT, "fn f(b: &[u8]) { let _ = &b[1..]; }").len(), 1);
        assert_eq!(check(HOT, "fn f(b: &[u8]) { let _ = &b[..3]; }").len(), 1);
        // Full-range and scalar indexing cannot panic-by-length-lie.
        assert!(check(HOT, "fn f(b: &[u8]) { let _ = &b[..]; }").is_empty());
        assert!(check(HOT, "fn f(b: &[u8]) { let _ = b[0]; }").is_empty());
        // Array literals and types are not indexing.
        assert!(check(HOT, "fn f() { let _ = [0u8; 8]; let _: [u8; 2]; }").is_empty());
    }

    #[test]
    fn r2_requires_adjacent_safety_comment() {
        let bad = "fn f() { unsafe { work() } }";
        assert_eq!(check(COLD, bad).len(), 1);
        let good = "fn f() {\n    // SAFETY: justified here.\n    unsafe { work() }\n}";
        assert!(check(COLD, good).is_empty());
        let far = "// SAFETY: too far away.\nfn f() { let x = 1; unsafe { work() } }";
        assert_eq!(check(COLD, far).len(), 1);
    }

    #[test]
    fn r2_sees_through_statement_prefixes_and_attributes() {
        // The comment justifies the whole statement, not just a
        // token-initial `unsafe`.
        let stmt = "fn f() {\n    // SAFETY: fine.\n    let x = unsafe { work() };\n}";
        assert!(check(COLD, stmt).is_empty());
        let stmt_bad = "fn f() {\n    let y = 1;\n    let x = unsafe { work() };\n}";
        assert_eq!(check(COLD, stmt_bad).len(), 1);
        // An `unsafe fn` documented with `# Safety`, with an attribute
        // between the doc and the declaration.
        let decl = "/// # Safety\n/// Caller checks CPU support.\n#[target_feature(enable = \"sse2\")]\npub unsafe fn k(d: &[u8]) {}";
        assert!(check(COLD, decl).is_empty());
        let decl_bad = "#[target_feature(enable = \"sse2\")]\npub unsafe fn k(d: &[u8]) {}";
        assert_eq!(check(COLD, decl_bad).len(), 1);
    }

    const SPLIT: &str = "crates/core/src/split.rs";

    #[test]
    fn r7_flags_payload_copies_in_split_emission_fns_only() {
        let bad = "fn push_to_into(&mut self, b: &[u8]) { self.buf.extend_from_slice(b); }";
        assert_eq!(check(SPLIT, bad).len(), 1);
        let bad2 = "fn push_sg(&mut self, b: &[u8]) { self.buf.copy_from_slice(b); }";
        assert_eq!(check(SPLIT, bad2).len(), 1);
        // Same copy outside an emission function, or outside the split
        // module, is fine.
        let setup = "fn rebuild(&mut self, b: &[u8]) { self.buf.extend_from_slice(b); }";
        assert!(check(SPLIT, setup).is_empty());
        assert!(check(HOT, bad).is_empty());
        // Waivable like every other rule.
        let waived = "fn push_to_into(&mut self, b: &[u8]) {\n    // px-analyze: allow(R7, reason = \"materialising fallback\")\n    self.buf.extend_from_slice(b);\n}";
        assert!(check(SPLIT, waived).is_empty());
        // Test code is exempt.
        let test_code =
            "#[cfg(test)]\nmod tests {\n    fn push_to_into(b: &mut Vec<u8>) { b.extend_from_slice(&[1]); }\n}";
        assert!(check(SPLIT, test_code).is_empty());
    }

    #[test]
    fn r3_flags_alloc_in_emission_fn_only() {
        let bad = "fn push_into(&mut self) { let v = Vec::new(); }";
        assert_eq!(check(HOT, bad).len(), 1);
        let ok_fn = "fn setup(&mut self) { let v = Vec::new(); }";
        assert!(check(HOT, ok_fn).is_empty());
        let bad2 = "fn emit_pending(&mut self) { let v = vec![0u8; 4]; }";
        assert_eq!(check(HOT, bad2).len(), 1);
        let bad3 = "fn forward(&mut self, b: &[u8]) { let v = b.to_vec(); }";
        assert_eq!(check(HOT, bad3).len(), 1);
    }

    #[test]
    fn waiver_suppresses_and_unused_waiver_errors() {
        let waived = "fn f(x: Option<u8>) {\n    // px-analyze: allow(R1, reason = \"test of waivers\")\n    x.unwrap();\n}";
        assert!(check(HOT, waived).is_empty());
        let unused = "// px-analyze: allow(R1, reason = \"nothing here\")\nfn f() {}";
        assert_eq!(check(HOT, unused).len(), 1);
        let no_reason = "fn f(x: Option<u8>) {\n    // px-analyze: allow(R1)\n    x.unwrap();\n}";
        // Waiver without reason: the unwrap stays AND the waiver errors.
        assert_eq!(check(HOT, no_reason).len(), 2);
    }

    #[test]
    fn waiver_skips_outer_and_inner_attributes() {
        // Waiver above an outer attribute covers the fn line it annotates.
        let outer = "// px-analyze: allow(R1, reason = \"attr hop\")\n#[inline]\nfn f(x: Option<u8>) { x.unwrap(); }";
        assert!(check(HOT, outer).is_empty(), "{:#?}", check(HOT, outer));
        // Waiver above an *inner* attribute (`#![…]`) must also skip it:
        // this was the regression — the `!` token broke attribute
        // tracking and the waiver attached to the attribute line.
        let inner = "// px-analyze: allow(R1, reason = \"attr hop\")\n#![allow(dead_code)]\nfn f(x: Option<u8>) { x.unwrap(); }";
        assert!(check(HOT, inner).is_empty(), "{:#?}", check(HOT, inner));
        // Stacked attributes are all skipped.
        let stacked = "// px-analyze: allow(R1, reason = \"attr hop\")\n#[inline]\n#[cold]\nfn f(x: Option<u8>) { x.unwrap(); }";
        assert!(check(HOT, stacked).is_empty(), "{:#?}", check(HOT, stacked));
    }

    #[test]
    fn transitive_r3_carries_a_blame_chain() {
        let src = "fn push_into(&mut self) { helper_a(); }\n\
                   fn helper_a() { helper_b(); }\n\
                   fn helper_b() { let v = Vec::new(); }";
        let vs = check(HOT, src);
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, Some(Rule::R3));
        assert_eq!(vs[0].chain, vec!["push_into", "helper_a", "helper_b"]);
        assert!(vs[0].message.contains("push_into → helper_a → helper_b"));
        // The same helpers without a hot entry point are clean.
        let cold_src = "fn setup(&mut self) { helper_a(); }\n\
                        fn helper_a() { helper_b(); }\n\
                        fn helper_b() { let v = Vec::new(); }";
        assert!(check(HOT, cold_src).is_empty());
    }

    #[test]
    fn transitive_r1_reaches_helpers_outside_hot_modules() {
        // check_source scopes by path: in a cold file nothing fires,
        // but R6 entries propagate anywhere.
        let src = "fn degrade_link(&mut self) { helper(); }\n\
                   fn helper(x: Option<u8>) { x.unwrap(); }";
        let vs = check(COLD, src);
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, Some(Rule::R6));
        assert_eq!(vs[0].chain, vec!["degrade_link", "helper"]);
    }

    #[test]
    fn r8_flags_nondeterminism_reachable_from_hot_entries() {
        let direct = "fn push_into(&mut self) { let t = Instant::now(); }";
        let vs = check(HOT, direct);
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, Some(Rule::R8));
        let transitive = "fn push_into(&mut self) { stamp(); }\n\
                          fn stamp() { let t = Instant::now(); }";
        let vs = check(HOT, transitive);
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, Some(Rule::R8));
        assert_eq!(vs[0].chain, vec!["push_into", "stamp"]);
        // The same clock read with no path from an entry point is fine.
        assert!(check(HOT, "fn bench_setup() { let t = Instant::now(); }").is_empty());
    }

    #[test]
    fn r9_flags_blocking_on_per_packet_paths_but_not_batch_boundaries() {
        let bad = "fn push_into(&mut self) { grab(); }\n\
                   fn grab(&self) { let g = self.stats.lock(); }";
        let vs = check(HOT, bad);
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, Some(Rule::R9));
        // process_batch is a declared batch boundary: locks are legal.
        let boundary = "fn process_batch(&mut self) { let g = self.stats.lock(); }";
        assert!(check(HOT, boundary).is_empty());
    }

    #[test]
    fn call_site_waiver_severs_transitive_propagation() {
        // The R6 waiver on the call line documents that the rebuild may
        // allocate — the callee's internals are then out of scope.
        let src = "fn on_fault_rebuild(&mut self) {\n\
                       // px-analyze: allow(R6, reason = \"the rebuild allocates outside the degraded path\")\n\
                       rebuild();\n\
                   }\n\
                   fn rebuild() { let v = Vec::new(); }";
        let vs = check(COLD, src);
        assert!(vs.is_empty(), "{vs:#?}");
    }
}
