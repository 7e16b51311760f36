//! Layer 2: workspace source analyzer.
//!
//! Token-level checks over the repository's own Rust source (lexed by the
//! vendored `syn` stand-in) enforcing invariants the compiler can't:
//!
//! * **Raw-`Table` discipline** — outside `rcc-storage`, no lock-wrapped
//!   `Table` (`Mutex<Table>` / `RwLock<Table>`): readers must go through
//!   `TableCell::snapshot()`, the invariant the lock-free snapshot reads
//!   of PR 4 rest on. Scoped to library sources; `src/bin/` measurement
//!   rigs (e.g. the deliberate locked-table baseline in `scan_engine`)
//!   are out of scope by construction, not allowlisted.
//! * **Lock-acquisition order** — a directed graph over `Mutex`/`RwLock`
//!   *fields*, with an edge A→B whenever B is acquired while a guard on A
//!   is held (let-bound guards live to the end of their block or an
//!   explicit `drop`). Any cycle is reported with one witness per edge.
//!   Lock identity is `(crate, field name)`: coarse, but deterministic and
//!   conservative in the safe direction for this codebase.
//! * **Metric-name discipline** — every `rcc_*` string literal in the
//!   workspace must be registered exactly once in `rcc-obs`'s
//!   `names::METRICS` table, and every registered name must be used.
//! * **File-I/O confinement** — no direct `std::fs` / `fs::` tokens in
//!   library sources outside `rcc-storage` and `rcc-bench`: durability
//!   (WAL, checkpoints, recovery) must flow through the storage layer, so
//!   no other crate may write files the recovery protocol doesn't know
//!   about.
//! * **Wire-tag discipline** — every `const TAG_*: u8` frame-tag
//!   declaration in `rcc-net` must be registered exactly once (same
//!   byte) in its `tags::FRAME_TAGS`, every registered tag must be
//!   declared and used, and no byte is ever reused: the frozen wire format
//!   is what keeps old and new peers interoperable.
//! * **Diagnostic-code discipline** — every `L0xx` lint-code string
//!   literal in the workspace must be declared exactly once in
//!   `rcc-lint`'s `codes` module, and every declared code must be used
//!   (by const reference or literal): corpora assert exact expected code
//!   sets, so a code that drifts or leaks outside the closed registry
//!   silently rots those assertions.
//!
//! Test modules are excluded by truncating each file at its first
//! `#[cfg(test)]` marker (the repo convention keeps unit tests at the
//! bottom of the file).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use syn::{Tok, TokKind};

/// How a source file participates in the checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/**` outside `src/bin/`).
    Lib,
    /// Binary source (`src/bin/**`): exempt from the raw-`Table` check.
    Bin,
}

/// One lexed source file ready for analysis.
pub struct SourceFile {
    /// Owning crate (`rcc-mtcache`, ...).
    pub crate_name: String,
    /// Path shown in findings.
    pub path: String,
    /// Library or binary source.
    pub kind: FileKind,
    /// Tokens, truncated at the first `#[cfg(test)]`.
    pub toks: Vec<Tok>,
}

/// A Layer-2 finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which check fired (`raw-table`, `lock-order`, `metric-names`,
    /// `fs-io`, `frame-tags`, `lint-codes`).
    pub check: &'static str,
    /// Offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.check, self.path, self.line, self.message
        )
    }
}

/// Lex `src` and truncate at the first `#[cfg(test)]` attribute.
pub fn prepare(crate_name: &str, path: &str, kind: FileKind, src: &str) -> SourceFile {
    let mut toks = syn::lex_file(src);
    if let Some(cut) = find_cfg_test(&toks) {
        toks.truncate(cut);
    }
    SourceFile {
        crate_name: crate_name.to_string(),
        path: path.to_string(),
        kind,
        toks,
    }
}

fn find_cfg_test(toks: &[Tok]) -> Option<usize> {
    (0..toks.len().saturating_sub(6)).find(|&i| {
        toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']')
    })
}

// ------------------------------------------------------------- raw Table

/// Flag lock-wrapped raw `Table` types outside `rcc-storage` lib sources.
pub fn check_raw_table(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name == "rcc-storage" || f.kind != FileKind::Lib {
            continue;
        }
        let t = &f.toks;
        for i in 0..t.len() {
            let lock = match &t[i].kind {
                TokKind::Ident(s) if s == "Mutex" || s == "RwLock" => s.clone(),
                _ => continue,
            };
            if i + 1 >= t.len() || !t[i + 1].is_punct('<') {
                continue;
            }
            let mut depth = 0i32;
            for tok in &t[i + 1..] {
                match &tok.kind {
                    TokKind::Punct('<') => depth += 1,
                    TokKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident(s) if s == "Table" => {
                        out.push(Finding {
                            check: "raw-table",
                            path: f.path.clone(),
                            line: t[i].line,
                            message: format!(
                                "{lock}<Table> outside rcc-storage: readers must go \
                                 through TableCell::snapshot()"
                            ),
                        });
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------ lock order

/// Collect `(crate, field)` lock identities: struct fields (and typed
/// bindings) of the shape `name: [Arc<]Mutex/RwLock<...>`.
fn collect_lock_fields(files: &[SourceFile]) -> BTreeSet<(String, String)> {
    let mut fields = BTreeSet::new();
    for f in files {
        let t = &f.toks;
        for i in 0..t.len().saturating_sub(2) {
            let TokKind::Ident(name) = &t[i].kind else {
                continue;
            };
            if !t[i + 1].is_punct(':') || (i + 2 < t.len() && t[i + 2].is_punct(':')) {
                continue; // `::` path, not a field
            }
            // Scan the type until a top-level `,`, `;`, `}` or `)`.
            let mut angle = 0i32;
            for tok in &t[i + 2..] {
                match &tok.kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct(',')
                    | TokKind::Punct(';')
                    | TokKind::Punct('}')
                    | TokKind::Punct(')')
                        if angle <= 0 =>
                    {
                        break;
                    }
                    TokKind::Punct('{') | TokKind::Punct('=') => break,
                    TokKind::Ident(s) if s == "Mutex" || s == "RwLock" => {
                        fields.insert((f.crate_name.clone(), name.clone()));
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    fields
}

/// Build the acquisition-order graph and report every cycle.
pub fn check_lock_order(files: &[SourceFile]) -> Vec<Finding> {
    let fields = collect_lock_fields(files);
    // edge (from, to) -> first witness
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    struct Guard {
        var: String,
        lock: String,
        depth: i32,
    }
    for f in files {
        let t = &f.toks;
        let mut held: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut pending_let: Option<String> = None;
        let mut i = 0;
        while i < t.len() {
            match &t[i].kind {
                TokKind::Punct('{') => {
                    depth += 1;
                    pending_let = None;
                }
                TokKind::Punct('}') => {
                    depth -= 1;
                    held.retain(|g| g.depth <= depth);
                    pending_let = None;
                }
                TokKind::Punct(';') => pending_let = None,
                TokKind::Ident(s) if s == "let" => {
                    let mut j = i + 1;
                    if j < t.len() && t[j].is_ident("mut") {
                        j += 1;
                    }
                    pending_let = match t.get(j).map(|tok| &tok.kind) {
                        Some(TokKind::Ident(name)) => Some(name.clone()),
                        _ => None,
                    };
                }
                TokKind::Ident(s)
                    if s == "drop"
                        && i + 3 < t.len()
                        && t[i + 1].is_punct('(')
                        && t[i + 3].is_punct(')') =>
                {
                    if let TokKind::Ident(var) = &t[i + 2].kind {
                        if let Some(k) = held.iter().rposition(|g| g.var == *var) {
                            held.remove(k);
                        }
                    }
                }
                TokKind::Ident(method)
                    if (method == "lock" || method == "read" || method == "write")
                        && i >= 2
                        && t[i - 1].is_punct('.')
                        && i + 2 < t.len()
                        && t[i + 1].is_punct('(')
                        && t[i + 2].is_punct(')') =>
                {
                    if let TokKind::Ident(recv) = &t[i - 2].kind {
                        let key = (f.crate_name.clone(), recv.clone());
                        if fields.contains(&key) {
                            let lock = format!("{}::{}", key.0, key.1);
                            for g in &held {
                                if g.lock != lock {
                                    edges
                                        .entry((g.lock.clone(), lock.clone()))
                                        .or_insert_with(|| (f.path.clone(), t[i].line));
                                }
                            }
                            if let Some(var) = pending_let.take() {
                                held.push(Guard { var, lock, depth });
                            }
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    find_cycles(&edges)
}

/// DFS over the edge set; one finding per discovered cycle.
fn find_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    let mut out = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        if done.contains(start) {
            continue;
        }
        // color: 0 unvisited, 1 on stack, 2 finished
        let mut color: BTreeMap<&str, u8> = BTreeMap::new();
        let mut path: Vec<&str> = Vec::new();
        dfs(start, &adj, &mut color, &mut path, edges, &mut out);
        done.extend(color.keys().copied());
    }
    out
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    color: &mut BTreeMap<&'a str, u8>,
    path: &mut Vec<&'a str>,
    edges: &BTreeMap<(String, String), (String, u32)>,
    out: &mut Vec<Finding>,
) {
    color.insert(node, 1);
    path.push(node);
    for &next in adj.get(node).into_iter().flatten() {
        match color.get(next).copied().unwrap_or(0) {
            0 => dfs(next, adj, color, path, edges, out),
            1 => {
                // cycle: path from `next` to `node`, closed by node->next
                let from = path.iter().position(|&n| n == next).unwrap_or(0);
                let cycle: Vec<&str> = path[from..].to_vec();
                let mut witnesses = Vec::new();
                for k in 0..cycle.len() {
                    let a = cycle[k];
                    let b = cycle[(k + 1) % cycle.len()];
                    if let Some((p, l)) = edges.get(&(a.to_string(), b.to_string())) {
                        witnesses.push(format!("{a} -> {b} at {p}:{l}"));
                    }
                }
                let (path0, line0) = edges
                    .get(&(node.to_string(), next.to_string()))
                    .cloned()
                    .unwrap_or_default();
                out.push(Finding {
                    check: "lock-order",
                    path: path0,
                    line: line0,
                    message: format!(
                        "lock acquisition cycle: {} ({})",
                        cycle.join(" -> "),
                        witnesses.join("; ")
                    ),
                });
            }
            _ => {}
        }
    }
    path.pop();
    color.insert(node, 2);
}

// --------------------------------------------------------------- file I/O

/// Crates whose library sources may touch the filesystem directly.
const FS_ALLOWED_CRATES: &[&str] = &["rcc-storage", "rcc-bench"];

/// Flag direct file-I/O tokens (`std::fs`, `fs::...`) outside the durable
/// storage layer.
///
/// Everything else must go through `rcc-storage`'s `DurableStore` (or stay
/// in memory) so that durability, recovery and the WAL-before-publish
/// protocol cannot be bypassed by ad-hoc file writes. Binary sources
/// (`src/bin/` measurement rigs and CLIs) are out of scope, like the
/// raw-`Table` check.
pub fn check_fs_io(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if FS_ALLOWED_CRATES.contains(&f.crate_name.as_str()) || f.kind != FileKind::Lib {
            continue;
        }
        let t = &f.toks;
        for i in 0..t.len() {
            // `std :: fs`
            if t[i].is_ident("std")
                && i + 3 < t.len()
                && t[i + 1].is_punct(':')
                && t[i + 2].is_punct(':')
                && t[i + 3].is_ident("fs")
            {
                out.push(Finding {
                    check: "fs-io",
                    path: f.path.clone(),
                    line: t[i].line,
                    message: format!(
                        "direct std::fs usage outside {}: file I/O must go \
                         through rcc-storage's durable layer",
                        FS_ALLOWED_CRATES.join("/")
                    ),
                });
                continue;
            }
            // bare `fs :: item` (e.g. after `use std::fs;`), not the tail
            // of `std :: fs` which the arm above already reported
            if t[i].is_ident("fs")
                && i + 2 < t.len()
                && t[i + 1].is_punct(':')
                && t[i + 2].is_punct(':')
                && !(i >= 3
                    && t[i - 3].is_ident("std")
                    && t[i - 2].is_punct(':')
                    && t[i - 1].is_punct(':'))
            {
                out.push(Finding {
                    check: "fs-io",
                    path: f.path.clone(),
                    line: t[i].line,
                    message: format!(
                        "direct fs:: usage outside {}: file I/O must go \
                         through rcc-storage's durable layer",
                        FS_ALLOWED_CRATES.join("/")
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------- metric names

/// Is `s` shaped like a metric name (`rcc_` plus `[a-z0-9_]+`)?
pub fn is_metric_name(s: &str) -> bool {
    s.len() > 4
        && s.starts_with("rcc_")
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Registry entries extracted from `rcc-obs`'s `names.rs` tokens, in order.
pub fn collect_registry(toks: &[Tok]) -> Vec<(String, u32)> {
    toks.iter()
        .filter_map(|t| match &t.kind {
            TokKind::Str(s) if is_metric_name(s) => Some((s.clone(), t.line)),
            _ => None,
        })
        .collect()
}

/// Enforce: every used `rcc_*` literal is registered; no duplicate or
/// unused registrations. `registry_path` is only used in messages.
pub fn check_metric_names(
    files: &[SourceFile],
    registry: &[(String, u32)],
    registry_path: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
    for (name, line) in registry {
        if let Some(first) = seen.insert(name, *line) {
            out.push(Finding {
                check: "metric-names",
                path: registry_path.to_string(),
                line: *line,
                message: format!("metric '{name}' registered twice (first at line {first})"),
            });
        }
    }
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        for t in &f.toks {
            let TokKind::Str(s) = &t.kind else { continue };
            if !is_metric_name(s) {
                continue;
            }
            if !seen.contains_key(s.as_str()) {
                out.push(Finding {
                    check: "metric-names",
                    path: f.path.clone(),
                    line: t.line,
                    message: format!("metric '{s}' is not registered in rcc-obs names::METRICS"),
                });
            }
            if let Some(hit) = seen.get_key_value(s.as_str()) {
                used.insert(hit.0);
            }
        }
    }
    for (name, line) in registry {
        if seen.get(name.as_str()) == Some(line) && !used.contains(name.as_str()) {
            out.push(Finding {
                check: "metric-names",
                path: registry_path.to_string(),
                line: *line,
                message: format!("metric '{name}' is registered but never used"),
            });
        }
    }
    out
}

// ------------------------------------------------------------ frame tags

/// Is `s` shaped like a wire-frame tag constant name (`TAG_` plus
/// `[A-Z0-9_]+`)?
pub fn is_tag_name(s: &str) -> bool {
    s.len() > 4
        && s.starts_with("TAG_")
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Parse a lexed numeric literal as a tag byte (`0x04`, `0x85`, `129`).
fn parse_tag_byte(num: &str) -> Option<u8> {
    let clean: String = num.chars().filter(|c| *c != '_').collect();
    if let Some(hex) = clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        u8::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

/// Registry entries `(byte, name, line)` extracted from `rcc-net`'s
/// `tags.rs` tokens: each `(0xNN, "TAG_*")` pair in `FRAME_TAGS`.
pub fn collect_tag_registry(toks: &[Tok]) -> Vec<(u8, String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(3) {
        let TokKind::Num(num) = &toks[i].kind else {
            continue;
        };
        if !toks[i + 1].is_punct(',') {
            continue;
        }
        let TokKind::Str(name) = &toks[i + 2].kind else {
            continue;
        };
        if !is_tag_name(name) {
            continue;
        }
        if let Some(byte) = parse_tag_byte(num) {
            out.push((byte, name.clone(), toks[i].line));
        }
    }
    out
}

/// `rcc-net` declarations `const TAG_*: u8 = <byte>;` as
/// `(name, byte, path, line)`. Scoped to the `rcc-net` crate: other
/// crates own other tag byte spaces (WAL record tags in `rcc-storage`,
/// value wire tags in `rcc-executor`) that legitimately reuse bytes.
fn collect_tag_decls(files: &[SourceFile]) -> Vec<(String, u8, String, u32)> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name != "rcc-net" {
            continue;
        }
        let t = &f.toks;
        for i in 0..t.len().saturating_sub(5) {
            if !t[i].is_ident("const") {
                continue;
            }
            let TokKind::Ident(name) = &t[i + 1].kind else {
                continue;
            };
            if !is_tag_name(name)
                || !t[i + 2].is_punct(':')
                || !t[i + 3].is_ident("u8")
                || !t[i + 4].is_punct('=')
            {
                continue;
            }
            let TokKind::Num(num) = &t[i + 5].kind else {
                continue;
            };
            if let Some(byte) = parse_tag_byte(num) {
                out.push((name.clone(), byte, f.path.clone(), t[i + 1].line));
            }
        }
    }
    out
}

/// Enforce the wire-tag registry invariant: every `const TAG_*: u8`
/// declaration in `rcc-net` is registered (under the same byte) in
/// `rcc-net`'s `tags::FRAME_TAGS`, exactly once; every registered tag is
/// declared and used; no byte or name appears twice in the registry.
/// `registry_path` is only used in messages.
pub fn check_frame_tags(
    files: &[SourceFile],
    registry: &[(u8, String, u32)],
    registry_path: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut by_name: BTreeMap<&str, (u8, u32)> = BTreeMap::new();
    let mut by_byte: BTreeMap<u8, u32> = BTreeMap::new();
    for (byte, name, line) in registry {
        if let Some((_, first)) = by_name.insert(name, (*byte, *line)) {
            out.push(Finding {
                check: "frame-tags",
                path: registry_path.to_string(),
                line: *line,
                message: format!("tag '{name}' registered twice (first at line {first})"),
            });
        }
        if let Some(first) = by_byte.insert(*byte, *line) {
            out.push(Finding {
                check: "frame-tags",
                path: registry_path.to_string(),
                line: *line,
                message: format!(
                    "tag byte 0x{byte:02x} registered twice (first at line {first}): \
                     wire bytes are never reused"
                ),
            });
        }
    }

    let decls = collect_tag_decls(files);
    let mut declared: BTreeMap<&str, (String, u32)> = BTreeMap::new();
    for (name, byte, path, line) in &decls {
        if let Some((first_path, first_line)) = declared.insert(name, (path.clone(), *line)) {
            out.push(Finding {
                check: "frame-tags",
                path: path.clone(),
                line: *line,
                message: format!(
                    "tag '{name}' declared twice (first at {first_path}:{first_line}): \
                     each tag byte has exactly one declaration"
                ),
            });
        }
        match by_name.get(name.as_str()) {
            None => out.push(Finding {
                check: "frame-tags",
                path: path.clone(),
                line: *line,
                message: format!("tag '{name}' is not registered in rcc-net tags::FRAME_TAGS"),
            }),
            Some((reg_byte, _)) if reg_byte != byte => out.push(Finding {
                check: "frame-tags",
                path: path.clone(),
                line: *line,
                message: format!(
                    "tag '{name}' declared as 0x{byte:02x} but registered as 0x{reg_byte:02x}"
                ),
            }),
            Some(_) => {}
        }
    }

    // A declaration must also be *used* — a tag no codec path reads or
    // writes is dead wire surface.
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        let t = &f.toks;
        for i in 0..t.len() {
            let TokKind::Ident(name) = &t[i].kind else {
                continue;
            };
            if !is_tag_name(name) || (i > 0 && t[i - 1].is_ident("const")) {
                continue;
            }
            if let Some(hit) = declared.get_key_value(name.as_str()) {
                used.insert(hit.0);
            }
        }
    }
    for (name, (byte, line)) in &by_name {
        match declared.get(name) {
            None => out.push(Finding {
                check: "frame-tags",
                path: registry_path.to_string(),
                line: *line,
                message: format!("tag '{name}' (0x{byte:02x}) is registered but never declared"),
            }),
            Some((path, decl_line)) if !used.contains(name) => out.push(Finding {
                check: "frame-tags",
                path: path.clone(),
                line: *decl_line,
                message: format!("tag '{name}' is declared but never used"),
            }),
            Some(_) => {}
        }
    }
    out
}

// ------------------------------------------------------------- lint codes

/// Is `s` shaped like a Layer-1 diagnostic code (`L` plus three digits)?
pub fn is_lint_code(s: &str) -> bool {
    s.len() == 4 && s.starts_with('L') && s[1..].chars().all(|c| c.is_ascii_digit())
}

/// Registry entries `(const_name, code, line)` extracted from `rcc-lint`'s
/// `codes` module tokens: each `const NAME: &str = "L0xx";` declaration.
pub fn collect_code_registry(toks: &[Tok]) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(6) {
        if !toks[i].is_ident("const") {
            continue;
        }
        let TokKind::Ident(name) = &toks[i + 1].kind else {
            continue;
        };
        if !toks[i + 2].is_punct(':')
            || !toks[i + 3].is_punct('&')
            || !toks[i + 4].is_ident("str")
            || !toks[i + 5].is_punct('=')
        {
            continue;
        }
        let TokKind::Str(code) = &toks[i + 6].kind else {
            continue;
        };
        if is_lint_code(code) {
            out.push((name.clone(), code.clone(), toks[i + 6].line));
        }
    }
    out
}

/// Enforce the diagnostic-code registry invariant: every `L0xx` string
/// literal in the workspace names a code declared in `rcc-lint`'s `codes`
/// module; no code or const is declared twice; and every declared code is
/// used somewhere — by const reference (`codes::DEAD_GUARD`) or by literal
/// (a corpus expected-set entry). `registry_path` identifies the file the
/// registry was extracted from, so its own declarations don't count as
/// usage sites.
pub fn check_lint_codes(
    files: &[SourceFile],
    registry: &[(String, String, u32)],
    registry_path: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut by_code: BTreeMap<&str, u32> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, u32> = BTreeMap::new();
    for (name, code, line) in registry {
        if let Some(first) = by_code.insert(code, *line) {
            out.push(Finding {
                check: "lint-codes",
                path: registry_path.to_string(),
                line: *line,
                message: format!("code '{code}' declared twice (first at line {first})"),
            });
        }
        if let Some(first) = by_name.insert(name, *line) {
            out.push(Finding {
                check: "lint-codes",
                path: registry_path.to_string(),
                line: *line,
                message: format!("const '{name}' declared twice (first at line {first})"),
            });
        }
    }
    let declared_at: BTreeSet<(&str, u32)> = registry
        .iter()
        .map(|(_, code, line)| (code.as_str(), *line))
        .collect();
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        for (i, t) in f.toks.iter().enumerate() {
            match &t.kind {
                TokKind::Str(s) if is_lint_code(s) => {
                    // the declaration itself is not a usage site
                    if f.path == registry_path && declared_at.contains(&(s.as_str(), t.line)) {
                        continue;
                    }
                    match by_code.get_key_value(s.as_str()) {
                        Some((code, _)) => {
                            used.insert(code);
                        }
                        None => out.push(Finding {
                            check: "lint-codes",
                            path: f.path.clone(),
                            line: t.line,
                            message: format!(
                                "code '{s}' is not declared in rcc-lint's codes module"
                            ),
                        }),
                    }
                }
                TokKind::Ident(name) if by_name.contains_key(name.as_str()) => {
                    // a const reference, not the declaration
                    if i > 0 && f.toks[i - 1].is_ident("const") {
                        continue;
                    }
                    if let Some((_, code, _)) = registry.iter().find(|(n, _, _)| n == name) {
                        if let Some(hit) = by_code.get_key_value(code.as_str()) {
                            used.insert(hit.0);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for (name, code, line) in registry {
        if by_code.get(code.as_str()) == Some(line) && !used.contains(code.as_str()) {
            out.push(Finding {
                check: "lint-codes",
                path: registry_path.to_string(),
                line: *line,
                message: format!("code '{code}' ({name}) is declared but never used"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, kind: FileKind, src: &str) -> SourceFile {
        prepare(crate_name, &format!("{crate_name}/src/x.rs"), kind, src)
    }

    #[test]
    fn raw_table_flagged_outside_storage() {
        let f = file(
            "rcc-backend",
            FileKind::Lib,
            "struct Db { t: Arc<RwLock<Table>> }",
        );
        let findings = check_raw_table(&[f]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("RwLock<Table>"));
    }

    #[test]
    fn raw_table_allowed_in_storage_bins_and_other_types() {
        for f in [
            file(
                "rcc-storage",
                FileKind::Lib,
                "struct S { t: RwLock<Table> }",
            ),
            file("rcc-bench", FileKind::Bin, "struct S { t: RwLock<Table> }"),
            file(
                "rcc-mtcache",
                FileKind::Lib,
                "struct S { t: RwLock<TableSnapshot>, c: Mutex<TableCell> }",
            ),
            file(
                "rcc-mtcache",
                FileKind::Lib,
                "// RwLock<Table> in a comment\nconst X: &str = \"RwLock<Table>\";",
            ),
        ] {
            assert!(check_raw_table(&[f]).is_empty());
        }
    }

    #[test]
    fn raw_table_in_test_module_ignored() {
        let f = file(
            "rcc-executor",
            FileKind::Lib,
            "fn main() {}\n#[cfg(test)]\nmod tests { struct S { t: Mutex<Table> } }",
        );
        assert!(check_raw_table(&[f]).is_empty());
    }

    const ORDERED: &str = "
        struct S { a: Mutex<u32>, b: Mutex<u32> }
        impl S {
            fn f(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
            fn g(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
        }";

    const REORDERED: &str = "
        struct S { a: Mutex<u32>, b: Mutex<u32> }
        impl S {
            fn f(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
            fn g(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
        }";

    #[test]
    fn consistent_lock_order_is_clean() {
        let f = file("rcc-x", FileKind::Lib, ORDERED);
        assert!(check_lock_order(&[f]).is_empty());
    }

    #[test]
    fn reordered_acquisitions_flagged() {
        // Mutation: reorder two lock acquisitions — flips clean to failing.
        let f = file("rcc-x", FileKind::Lib, REORDERED);
        let findings = check_lock_order(&[f]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"), "{findings:?}");
    }

    #[test]
    fn block_scope_and_drop_release_guards() {
        // Guard released by `}` or drop(): no overlap, no edge, no cycle.
        let src = "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn f(&self) { { let ga = self.a.lock(); } let gb = self.b.lock(); }
                fn g(&self) { let gb = self.b.lock(); drop(gb); let ga = self.a.lock(); }
            }";
        let f = file("rcc-x", FileKind::Lib, src);
        assert!(check_lock_order(&[f]).is_empty());
    }

    #[test]
    fn temporary_guards_do_not_hold() {
        let src = "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn f(&self) { self.a.lock().push(1); self.b.lock().push(2); }
                fn g(&self) { self.b.lock().push(1); self.a.lock().push(2); }
            }";
        let f = file("rcc-x", FileKind::Lib, src);
        assert!(check_lock_order(&[f]).is_empty());
    }

    fn reg(names: &[&str]) -> Vec<(String, u32)> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i as u32 + 1))
            .collect()
    }

    #[test]
    fn unregistered_metric_flagged() {
        // Mutation: add an unregistered metric — flips clean to failing.
        let f = file(
            "rcc-x",
            FileKind::Lib,
            "fn f(m: &M) { m.counter(\"rcc_known_total\", &[]); }",
        );
        let clean = check_metric_names(&[f], &reg(&["rcc_known_total"]), "names.rs");
        assert!(clean.is_empty(), "{clean:?}");
        let f = file(
            "rcc-x",
            FileKind::Lib,
            "fn f(m: &M) { m.counter(\"rcc_known_total\", &[]); m.counter(\"rcc_bogus_total\", &[]); }",
        );
        let findings = check_metric_names(&[f], &reg(&["rcc_known_total"]), "names.rs");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("rcc_bogus_total"));
    }

    #[test]
    fn duplicate_and_unused_registrations_flagged() {
        let f = file(
            "rcc-x",
            FileKind::Lib,
            "fn f(m: &M) { m.counter(\"rcc_a_total\", &[]); }",
        );
        let findings = check_metric_names(
            &[f],
            &reg(&["rcc_a_total", "rcc_a_total", "rcc_idle_total"]),
            "names.rs",
        );
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("registered twice")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("rcc_idle_total") && m.contains("never used")),
            "{msgs:?}"
        );
    }

    #[test]
    fn fs_io_flagged_outside_storage() {
        // Mutation: add a std::fs call outside rcc-storage/rcc-bench —
        // flips clean to failing.
        let clean = file(
            "rcc-backend",
            FileKind::Lib,
            "fn f(store: &DurableStore) { store.checkpoint().unwrap(); }",
        );
        assert!(check_fs_io(&[clean]).is_empty());
        let dirty = file(
            "rcc-backend",
            FileKind::Lib,
            "fn f() { std::fs::write(\"sneaky\", b\"x\").unwrap(); }",
        );
        let findings = check_fs_io(&[dirty]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].check, "fs-io");
        assert!(findings[0].message.contains("std::fs"), "{findings:?}");
    }

    #[test]
    fn bare_fs_path_flagged_once() {
        // `use std::fs;` then `fs::read(..)`: one finding per site, and
        // the `std :: fs` arm does not double-report the `fs :: read`.
        let f = file(
            "rcc-replication",
            FileKind::Lib,
            "use std::fs;\nfn f() { let _ = fs::read(\"x\"); }",
        );
        let findings = check_fs_io(&[f]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
        let qualified = file(
            "rcc-replication",
            FileKind::Lib,
            "fn f() { let _ = std::fs::read(\"x\"); }",
        );
        assert_eq!(check_fs_io(&[qualified]).len(), 1, "no double report");
    }

    #[test]
    fn fs_io_allowed_in_storage_bench_bins_and_tests() {
        for f in [
            file(
                "rcc-storage",
                FileKind::Lib,
                "fn f() { std::fs::rename(a, b).unwrap(); }",
            ),
            file(
                "rcc-bench",
                FileKind::Lib,
                "fn f() { std::fs::write(\"BENCH_wal.json\", s).unwrap(); }",
            ),
            file(
                "rcc-net",
                FileKind::Bin,
                "fn main() { std::fs::create_dir_all(\"data\").unwrap(); }",
            ),
            file(
                "rcc-backend",
                FileKind::Lib,
                "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { std::fs::remove_dir_all(d); } }",
            ),
        ] {
            assert!(check_fs_io(&[f]).is_empty());
        }
    }

    #[test]
    fn non_fs_idents_ignored() {
        // Other `fs`-like identifiers and strings must not trip the check.
        let f = file(
            "rcc-obs",
            FileKind::Lib,
            "const A: &str = \"std::fs\"; fn f(fsyncs: u64) -> u64 { fsyncs }",
        );
        assert!(check_fs_io(&[f]).is_empty());
    }

    #[test]
    fn non_metric_strings_ignored() {
        let f = file(
            "rcc-x",
            FileKind::Lib,
            "const A: &str = \"rcc-common\"; const B: &str = \"not rcc_x here\";",
        );
        assert!(check_metric_names(&[f], &reg(&[]), "names.rs").is_empty());
    }

    fn tag_reg(entries: &[(u8, &str)]) -> Vec<(u8, String, u32)> {
        entries
            .iter()
            .enumerate()
            .map(|(i, (b, n))| (*b, n.to_string(), i as u32 + 1))
            .collect()
    }

    const TAGS_OK: &str = "const TAG_A: u8 = 0x01;\nconst TAG_B: u8 = 0x81;\n\
         fn f(b: u8) -> bool { b == TAG_A || b == TAG_B }";

    #[test]
    fn registry_roundtrip_from_tokens() {
        let f = file(
            "rcc-net",
            FileKind::Lib,
            "pub const FRAME_TAGS: &[(u8, &str)] = &[(0x01, \"TAG_A\"), (0x81, \"TAG_B\")];",
        );
        assert_eq!(
            collect_tag_registry(&f.toks),
            vec![
                (0x01, "TAG_A".to_string(), 1),
                (0x81, "TAG_B".to_string(), 1)
            ]
        );
    }

    #[test]
    fn registered_and_used_tags_are_clean() {
        let f = file("rcc-net", FileKind::Lib, TAGS_OK);
        let findings = check_frame_tags(
            &[f],
            &tag_reg(&[(0x01, "TAG_A"), (0x81, "TAG_B")]),
            "tags.rs",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unregistered_tag_declaration_flagged() {
        // Mutation: declare a tag the registry doesn't know — flips clean
        // to failing.
        let f = file(
            "rcc-net",
            FileKind::Lib,
            "const TAG_A: u8 = 0x01;\nconst TAG_ROGUE: u8 = 0x7f;\n\
             fn f(b: u8) -> bool { b == TAG_A || b == TAG_ROGUE }",
        );
        let findings = check_frame_tags(&[f], &tag_reg(&[(0x01, "TAG_A")]), "tags.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("TAG_ROGUE")
                && findings[0].message.contains("not registered"),
            "{findings:?}"
        );
    }

    #[test]
    fn byte_mismatch_between_declaration_and_registry_flagged() {
        // Mutation: re-point a declared tag at a different byte — the
        // registry pins the wire format, so the drift is flagged.
        let f = file(
            "rcc-net",
            FileKind::Lib,
            "const TAG_A: u8 = 0x02;\nfn f(b: u8) -> bool { b == TAG_A }",
        );
        let findings = check_frame_tags(&[f], &tag_reg(&[(0x01, "TAG_A")]), "tags.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("declared as 0x02 but registered as 0x01"),
            "{findings:?}"
        );
    }

    #[test]
    fn duplicate_registry_byte_and_name_flagged() {
        // Mutation: reuse a wire byte for a second tag — flips clean to
        // failing even before any declaration exists.
        let findings = check_frame_tags(
            &[],
            &tag_reg(&[(0x01, "TAG_A"), (0x01, "TAG_B"), (0x02, "TAG_A")]),
            "tags.rs",
        );
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("byte 0x01 registered twice")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("'TAG_A' registered twice")),
            "{msgs:?}"
        );
    }

    #[test]
    fn undeclared_and_unused_tags_flagged() {
        // Mutation 1: registry entry with no declaration anywhere.
        let f = file("rcc-net", FileKind::Lib, TAGS_OK);
        let findings = check_frame_tags(
            &[f],
            &tag_reg(&[(0x01, "TAG_A"), (0x81, "TAG_B"), (0x02, "TAG_GHOST")]),
            "tags.rs",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("'TAG_GHOST' (0x02) is registered but never declared"),
            "{findings:?}"
        );
        // Mutation 2: declared and registered, but no codec path uses it.
        let f = file(
            "rcc-net",
            FileKind::Lib,
            "const TAG_A: u8 = 0x01;\nconst TAG_DEAD: u8 = 0x02;\n\
             fn f(b: u8) -> bool { b == TAG_A }",
        );
        let findings = check_frame_tags(
            &[f],
            &tag_reg(&[(0x01, "TAG_A"), (0x02, "TAG_DEAD")]),
            "tags.rs",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("'TAG_DEAD' is declared but never used"),
            "{findings:?}"
        );
    }

    #[test]
    fn duplicate_tag_declaration_flagged() {
        let a = file("rcc-net", FileKind::Lib, TAGS_OK);
        let b = prepare(
            "rcc-net",
            "rcc-net/src/y.rs",
            FileKind::Lib,
            "const TAG_A: u8 = 0x01;\nfn g(b: u8) -> bool { b == TAG_A }",
        );
        let findings = check_frame_tags(
            &[a, b],
            &tag_reg(&[(0x01, "TAG_A"), (0x81, "TAG_B")]),
            "tags.rs",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("'TAG_A' declared twice"),
            "{findings:?}"
        );
    }

    const CODES_DECL: &str = "pub mod codes {\n\
         pub const SUBSUMED_BOUND: &str = \"L001\";\n\
         pub const DEAD_GUARD: &str = \"L007\";\n\
         }\nfn f() { emit(codes::SUBSUMED_BOUND); }";

    fn code_registry(src: &str) -> Vec<(String, String, u32)> {
        collect_code_registry(&prepare("rcc-lint", "rcc-lint/src/lib.rs", FileKind::Lib, src).toks)
    }

    #[test]
    fn code_registry_roundtrip_from_tokens() {
        assert_eq!(
            code_registry(CODES_DECL),
            vec![
                ("SUBSUMED_BOUND".to_string(), "L001".to_string(), 2),
                ("DEAD_GUARD".to_string(), "L007".to_string(), 3),
            ]
        );
    }

    #[test]
    fn declared_and_used_codes_are_clean() {
        // L001 used via const reference in the registry file itself, L007
        // via a corpus literal in another crate.
        let lib = prepare("rcc-lint", "rcc-lint/src/lib.rs", FileKind::Lib, CODES_DECL);
        let corpus = file(
            "rcc-tpcd",
            FileKind::Lib,
            "pub fn expected() -> Vec<&'static str> { vec![\"L007\"] }",
        );
        let registry = code_registry(CODES_DECL);
        let findings = check_lint_codes(&[lib, corpus], &registry, "rcc-lint/src/lib.rs");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn undeclared_code_literal_flagged() {
        // Mutation: a corpus expects a code the registry doesn't declare —
        // flips clean to failing.
        let lib = prepare("rcc-lint", "rcc-lint/src/lib.rs", FileKind::Lib, CODES_DECL);
        let corpus = file(
            "rcc-tpcd",
            FileKind::Lib,
            "pub fn expected() -> Vec<&'static str> { vec![\"L007\", \"L009\"] }",
        );
        let registry = code_registry(CODES_DECL);
        let findings = check_lint_codes(&[lib, corpus], &registry, "rcc-lint/src/lib.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("'L009' is not declared"),
            "{findings:?}"
        );
    }

    #[test]
    fn duplicate_code_declaration_flagged() {
        // Mutation: two consts claim the same code — corpora asserting
        // exact sets can no longer tell the diagnostics apart.
        let src = "pub mod codes {\n\
             pub const A: &str = \"L001\";\n\
             pub const B: &str = \"L001\";\n\
             }\nfn f() { emit(codes::A); emit(codes::B); }";
        let lib = prepare("rcc-lint", "rcc-lint/src/lib.rs", FileKind::Lib, src);
        let registry = code_registry(src);
        let findings = check_lint_codes(&[lib], &registry, "rcc-lint/src/lib.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("'L001' declared twice"),
            "{findings:?}"
        );
    }

    #[test]
    fn unused_code_declaration_flagged() {
        // Mutation: declare a code nothing references — dead diagnostic
        // surface, flagged at the declaration.
        let src = "pub mod codes {\n\
             pub const LIVE: &str = \"L001\";\n\
             pub const GHOST: &str = \"L008\";\n\
             }\nfn f() { emit(codes::LIVE); }";
        let lib = prepare("rcc-lint", "rcc-lint/src/lib.rs", FileKind::Lib, src);
        let registry = code_registry(src);
        let findings = check_lint_codes(&[lib], &registry, "rcc-lint/src/lib.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("'L008' (GHOST) is declared but never used"),
            "{findings:?}"
        );
    }

    #[test]
    fn non_code_strings_and_embedded_mentions_ignored() {
        // Help text mentioning codes inside a longer string, and other
        // L-prefixed words, must not trip the check.
        let lib = prepare("rcc-lint", "rcc-lint/src/lib.rs", FileKind::Lib, CODES_DECL);
        let other = file(
            "rcc-mtcache",
            FileKind::Lib,
            "const HELP: &str = \"diagnostics labeled by code (L001..L007)\";\n\
             const W: &str = \"LOUD\"; fn f(label: &str) {}",
        );
        let registry = code_registry(CODES_DECL);
        // L001 is used via const ref in lib; L007 goes unused here on
        // purpose — embedded mentions must NOT count as usage.
        let findings = check_lint_codes(&[lib, other], &registry, "rcc-lint/src/lib.rs");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("'L007'") && findings[0].message.contains("never used"),
            "{findings:?}"
        );
    }

    #[test]
    fn non_tag_consts_test_modules_and_other_crates_ignored() {
        // Other u8 consts, tag-shaped strings, declarations inside test
        // modules, and other crates' tag byte spaces (WAL record tags,
        // value wire tags) must not trip the check.
        let net = file(
            "rcc-net",
            FileKind::Lib,
            "const VERSION: u8 = 1; const S: &str = \"TAG_FAKE\";\n\
             fn f() {}\n#[cfg(test)]\nmod tests { const TAG_TEST_ONLY: u8 = 0x7e; }",
        );
        let wal = file(
            "rcc-storage",
            FileKind::Lib,
            "const TAG_COMMIT: u8 = 0x01;\nfn g(b: u8) -> bool { b == TAG_COMMIT }",
        );
        assert!(check_frame_tags(&[net, wal], &tag_reg(&[]), "tags.rs").is_empty());
    }
}
