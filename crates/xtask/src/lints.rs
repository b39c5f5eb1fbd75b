//! The repo-specific lints behind `cargo xtask lint`.
//!
//! | ID | What it catches | Where |
//! |----|-----------------|-------|
//! | L1 | raw slice/array indexing `buf[i]` outside the audited low-level modules | `ndcube`, `rps-core` |
//! | L2 | `unwrap()` / `expect()` / `panic!`-family in library code | the six library crates |
//! | L3 | missing crate-root lint headers / missing `[lints] workspace = true` | all workspace members |
//! | L4 | bare `as` numeric casts | `ndcube`, `rps-core` |
//! | L5 | heap allocation (`vec!`, `Vec::new`, `.to_vec()`, `.collect::<Vec`) in hot-path kernel modules | `rps-core` hot paths |
//! | L6 | direct `std::time::Instant` use outside the `rps-obs` timers | the six library crates |
//! | L7 | lock/borrow guards held across storage I/O or a second acquisition; lock-order inversions | the six library crates |
//! | L8 | silently discarded `Result` (`let _ = f(..)`); `expect` messages off the allowlist | the six library crates |
//! | L9 | `unsafe` without an adjacent `// SAFETY:` comment | whole workspace, tests included |
//!
//! L1–L6 are token-grep lints over the [`crate::lexer`] stream; L7–L9
//! additionally use the brace-matched item tree in [`crate::model`]
//! (guard live ranges, call edges, `unsafe` item kinds).
//!
//! Every lint accepts an explicit escape written as a comment on the
//! offending line or the line directly above:
//!
//! ```text
//! // lint:allow(L4): sum of box counts fits u32 by construction (≤ 2^16 boxes)
//! let n = total as u32;
//! ```
//!
//! The reason string is mandatory; an allow without one is itself a
//! finding. See `docs/STATIC_ANALYSIS.md` for the full policy.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{leading_string_literal, tokenize, TokenKind, KEYWORDS_BEFORE_ARRAY};
use crate::model::{test_line_ranges, FileModel};

/// Lint identifiers. Declaration order MUST match [`REGISTRY`] order:
/// `id()`/`describe()` index the registry by discriminant (pinned by the
/// `registry_order_matches_discriminants` test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// Raw slice/array indexing outside allow-listed low-level modules.
    L1,
    /// Panic-family calls (`unwrap`, `expect`, `panic!`, …) in library code.
    L2,
    /// Crate-root lint headers and `[lints] workspace = true` opt-in.
    L3,
    /// Bare `as` numeric casts in `ndcube`/`rps-core`.
    L4,
    /// Heap allocation in the allocation-free hot-path kernel modules.
    L5,
    /// Direct `std::time::Instant` use in library code, bypassing the
    /// `rps_obs::set_timing` gate.
    L6,
    /// Lock discipline: guard live ranges crossing storage I/O or a
    /// second acquisition; undeclared/inverted lock orders.
    L7,
    /// Error hygiene: silently discarded `Result`s and unsanctioned
    /// `expect` messages.
    L8,
    /// Unsafe audit: every `unsafe` needs an adjacent `// SAFETY:`.
    L9,
}

/// One row of the lint registry: everything the driver needs to know
/// about a lint, in one place.
pub struct LintSpec {
    /// The enum value.
    pub lint: Lint,
    /// Short identifier used in output and `lint:allow(..)` escapes.
    pub id: &'static str,
    /// One-line description for `cargo xtask lint --list`.
    pub describe: &'static str,
}

/// The single source of truth for lint identity. `Lint::ALL`, `id()`,
/// `parse()` and `describe()` are all derived from this table, so adding
/// a lint is one new enum variant plus one new row — the three
/// previously hand-maintained `match` arms cannot drift any more.
pub const REGISTRY: [LintSpec; 9] = [
    LintSpec {
        lint: Lint::L1,
        id: "L1",
        describe: "raw slice indexing outside audited low-level modules (ndcube, rps-core)",
    },
    LintSpec {
        lint: Lint::L2,
        id: "L2",
        describe: "unwrap()/expect()/panic!-family in library code (six library crates)",
    },
    LintSpec {
        lint: Lint::L3,
        id: "L3",
        describe: "crate-root lint headers + `[lints] workspace = true` in every manifest",
    },
    LintSpec {
        lint: Lint::L4,
        id: "L4",
        describe: "bare `as` numeric casts in ndcube/rps-core (use TryFrom/From)",
    },
    LintSpec {
        lint: Lint::L5,
        id: "L5",
        describe:
            "heap allocation (vec!/Vec::new/.to_vec/.collect::<Vec) in hot-path kernel modules",
    },
    LintSpec {
        lint: Lint::L6,
        id: "L6",
        describe: "direct std::time::Instant outside rps_obs::Span/Stopwatch (six library crates)",
    },
    LintSpec {
        lint: Lint::L7,
        id: "L7",
        describe: "lock/borrow guard held across storage I/O or a second acquisition; lock-order \
                   inversions (six library crates; sanction nesting with `// lock-order: a < b`)",
    },
    LintSpec {
        lint: Lint::L8,
        id: "L8",
        describe: "silently discarded Result (`let _ = f(..)`) and expect() messages outside the \
                   sanctioned allowlist (six library crates)",
    },
    LintSpec {
        lint: Lint::L9,
        id: "L9",
        describe: "unsafe block/fn without an adjacent `// SAFETY:` comment (whole workspace, \
                   tests included; inventory in docs/UNSAFE_INVENTORY.md)",
    },
];

impl Lint {
    /// All lints, in report order (derived from [`REGISTRY`]).
    pub const ALL: [Lint; REGISTRY.len()] = {
        let mut all = [Lint::L1; REGISTRY.len()];
        let mut i = 0;
        while i < REGISTRY.len() {
            all[i] = REGISTRY[i].lint;
            i += 1;
        }
        all
    };

    /// The short identifier used in output and `lint:allow(..)` escapes.
    pub fn id(self) -> &'static str {
        REGISTRY[self as usize].id
    }

    /// One-line description for `cargo xtask lint --list`.
    pub fn describe(self) -> &'static str {
        REGISTRY[self as usize].describe
    }

    /// Parses `"L1"`..`"L9"` (case-insensitive), via the registry.
    pub fn parse(s: &str) -> Option<Lint> {
        REGISTRY
            .iter()
            .find(|spec| spec.id.eq_ignore_ascii_case(s))
            .map(|spec| spec.lint)
    }
}

/// One lint violation, pointing at a workspace-relative `file:line`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings (L3 headers).
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            writeln!(f, "{} {}: {}", self.lint.id(), self.file, self.message)?;
        } else {
            writeln!(
                f,
                "{} {}:{}: {}",
                self.lint.id(),
                self.file,
                self.line,
                self.message
            )?;
        }
        write!(f, "    fix: {}", self.hint)
    }
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Crates whose `src/` trees are scanned by L1 and L4 (the index-math
/// crates where a silent truncation corrupts region sums).
const INDEX_MATH_SRC: &[&str] = &["crates/ndcube/src", "crates/rps-core/src"];

/// Low-level modules allowed to use raw indexing (L1). These are the
/// audited sweep/stride kernels where bounds are established once per
/// loop nest and checked access would be pure overhead; everything else
/// in `ndcube`/`rps-core` must go through the checked `Shape` helpers.
pub const L1_ALLOWED_MODULES: &[&str] = &[
    // ndcube: the shape/stride arithmetic itself plus the dense-cube
    // cell accessors and the odometer iterator it is defined against.
    "crates/ndcube/src/shape.rs",
    "crates/ndcube/src/cube.rs",
    "crates/ndcube/src/iter.rs",
    // rps-core: the prefix-sum sweeps and the RP/P/overlay kernels that
    // implement the paper's recurrences, the box-grid coordinate maps,
    // and the Fenwick/corner fallback structures.
    "crates/rps-core/src/prefix.rs",
    "crates/rps-core/src/fenwick.rs",
    "crates/rps-core/src/blocked_fenwick.rs",
    "crates/rps-core/src/corners.rs",
    "crates/rps-core/src/rps/build.rs",
    "crates/rps-core/src/rps/grid.rs",
    "crates/rps-core/src/rps/overlay.rs",
    "crates/rps-core/src/rps/update.rs",
    // The versioned engine's slab views reproduce the overlay/RP cell
    // addressing against chunked storage; same audited index arithmetic.
    "crates/rps-core/src/versioned.rs",
];

/// The six library crates whose `src/` trees L2 and L6 scan. Tests,
/// benches, examples, the CLI binary, the bench harness and the
/// `compat/` shims are exempt by construction; `crates/obs` is exempt
/// from L6 by being outside this list — it is the sanctioned home of
/// the `Instant` reads (`Span`, `Stopwatch`, the trace ring). Public so
/// the fixture tests can assert the scope itself — in particular that
/// the durable storage crate's I/O paths stay under the no-panic
/// policy.
pub const L2_LIBRARY_SRC: &[&str] = &[
    "crates/ndcube/src",
    "crates/rps-core/src",
    "crates/storage/src",
    "crates/workload/src",
    "crates/analysis/src",
    "crates/serve/src",
];

/// Hot-path kernel modules that must stay allocation-free in steady
/// state (L5): the query/update kernels, the engine entry points, and the
/// box-grid `_into` coordinate maps. Construction-time and cold-path
/// allocations inside these files carry explicit `lint:allow(L5)`
/// escapes; the counting-allocator test in `crates/bench` enforces the
/// zero-allocation claim at runtime.
pub const L5_HOT_PATH_MODULES: &[&str] = &[
    "crates/rps-core/src/rps/update.rs",
    "crates/rps-core/src/rps/mod.rs",
    "crates/rps-core/src/rps/query.rs",
    "crates/rps-core/src/rps/grid.rs",
    "crates/rps-core/src/rps/kernels.rs",
    "crates/rps-core/src/blocked_fenwick.rs",
    "crates/rps-core/src/fenwick.rs",
];

/// Crate roots that must carry the L3 lint header.
pub const L3_CRATE_ROOTS: &[&str] = &[
    "crates/ndcube/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/rps-core/src/lib.rs",
    "crates/storage/src/lib.rs",
    "crates/workload/src/lib.rs",
    "crates/analysis/src/lib.rs",
    "crates/serve/src/lib.rs",
    "src/lib.rs",
];

/// Manifest locations that must opt into the workspace lint table.
const L3_MANIFEST_DIRS: &[&str] = &["crates", "compat"];

// ---------------------------------------------------------------------------
// Shared machinery: allow-escapes and #[cfg(test)] masking
// ---------------------------------------------------------------------------

/// The `lint:allow` escapes found in a file for one lint: which lines
/// they cover, plus malformed escapes (missing reason), which are
/// findings in their own right.
struct Allows {
    lines: HashSet<usize>,
    malformed: Vec<(usize, String)>,
}

fn collect_allows(source: &str, lint: Lint) -> Allows {
    let mut lines = HashSet::new();
    let mut malformed = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        // The escape must live in a line comment.
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at..];
        let Some(marker) = comment.find("lint:allow(") else {
            continue;
        };
        let rest = &comment[marker + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            malformed.push((line_no, "unclosed `lint:allow(` escape".to_string()));
            continue;
        };
        let id = rest[..close].trim();
        if id != lint.id() {
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|reason| !reason.trim().is_empty());
        if has_reason {
            // Covers a trailing comment on the offending line and a
            // comment on the line directly above it.
            lines.insert(line_no);
            lines.insert(line_no + 1);
        } else {
            malformed.push((
                line_no,
                format!(
                    "`lint:allow({id})` escape without a reason — every allow must justify itself"
                ),
            ));
        }
    }
    Allows { lines, malformed }
}

fn in_ranges(line: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
}

fn malformed_to_findings(file: &str, lint: Lint, allows: &Allows, out: &mut Vec<Finding>) {
    for (line, message) in &allows.malformed {
        out.push(Finding {
            lint,
            file: file.to_string(),
            line: *line,
            message: message.clone(),
            hint: format!(
                "write `// lint:allow({}): <why this site is sound>`",
                lint.id()
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// L1 — raw slice indexing
// ---------------------------------------------------------------------------

/// Checks one file for raw index expressions (`expr[..]`).
pub fn check_l1(file: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let masked = test_line_ranges(&tokens);
    let allows = collect_allows(source, Lint::L1);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L1, &allows, &mut out);

    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_punct('[') || idx == 0 {
            continue;
        }
        let prev = &tokens[idx - 1];
        let indexes = match prev.kind {
            TokenKind::Number => true,
            TokenKind::Ident => !KEYWORDS_BEFORE_ARRAY.contains(&prev.text.as_str()),
            TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']') || prev.is_punct('?'),
        };
        if !indexes || in_ranges(tok.line, &masked) || allows.lines.contains(&tok.line) {
            continue;
        }
        out.push(Finding {
            lint: Lint::L1,
            file: file.to_string(),
            line: tok.line,
            message: format!(
                "raw index expression `{}[..]` outside the audited low-level modules",
                prev.text
            ),
            hint: "go through the checked Shape/stride helpers (Shape::linear, NdCube::try_get, \
                   slice::get), move the code into an L1-allow-listed kernel module, or add \
                   `// lint:allow(L1): <why bounds hold>`"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L2 — panic-family in library code
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Checks one library file for panic-family calls.
pub fn check_l2(file: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let masked = test_line_ranges(&tokens);
    let allows = collect_allows(source, Lint::L2);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L2, &allows, &mut out);

    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |ch: char| tokens.get(idx + 1).is_some_and(|t| t.is_punct(ch));
        let prev_is_dot = idx > 0 && tokens[idx - 1].is_punct('.');
        let name = tok.text.as_str();

        let hit = if PANIC_MACROS.contains(&name) && next_is('!') {
            Some(format!("`{name}!` in library code"))
        } else if PANIC_METHODS.contains(&name) && prev_is_dot && next_is('(') {
            Some(format!("`.{name}()` in library code"))
        } else {
            None
        };
        let Some(message) = hit else { continue };
        if in_ranges(tok.line, &masked) || allows.lines.contains(&tok.line) {
            continue;
        }
        out.push(Finding {
            lint: Lint::L2,
            file: file.to_string(),
            line: tok.line,
            message,
            hint: "return a Result with a typed error instead; if the failure is truly \
                   unreachable, prove it with a comment and `// lint:allow(L2): <invariant>`"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L3 — crate-root headers and manifest opt-in
// ---------------------------------------------------------------------------

/// Checks a crate-root source file for the required lint header.
pub fn check_l3_crate_root(file: &str, source: &str) -> Vec<Finding> {
    // Whitespace-insensitive match so rustfmt layout differences don't
    // defeat the check.
    let squashed: String = source.chars().filter(|c| !c.is_whitespace()).collect();
    let mut out = Vec::new();
    if !squashed.contains("#![forbid(unsafe_code)]") {
        out.push(Finding {
            lint: Lint::L3,
            file: file.to_string(),
            line: 0,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            hint: "add the header attribute at the top of the crate root (the workspace lint \
                   table also forbids unsafe_code, but the header keeps the guarantee visible \
                   and survives the crate being built out-of-workspace)"
                .to_string(),
        });
    }
    if !squashed.contains("#![warn(missing_docs)]") && !squashed.contains("#![deny(missing_docs)]")
    {
        out.push(Finding {
            lint: Lint::L3,
            file: file.to_string(),
            line: 0,
            message: "crate root is missing `#![warn(missing_docs)]`".to_string(),
            hint: "add `#![warn(missing_docs)]` (or deny) at the top of the crate root".to_string(),
        });
    }
    out
}

/// Checks a `Cargo.toml` for the `[lints] workspace = true` opt-in.
pub fn check_l3_manifest(file: &str, source: &str) -> Vec<Finding> {
    let mut in_lints = false;
    let mut opted_in = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_lints = trimmed == "[lints]";
            continue;
        }
        if in_lints {
            let no_space: String = trimmed.chars().filter(|c| !c.is_whitespace()).collect();
            if no_space.starts_with("workspace=true") {
                opted_in = true;
            }
        }
    }
    if opted_in {
        Vec::new()
    } else {
        vec![Finding {
            lint: Lint::L3,
            file: file.to_string(),
            line: 0,
            message: "manifest does not opt into the workspace lint table".to_string(),
            hint: "add `[lints]` with `workspace = true` so the crate inherits the shared \
                   clippy::pedantic + forbid(unsafe_code) policy from the root Cargo.toml"
                .to_string(),
        }]
    }
}

// ---------------------------------------------------------------------------
// L4 — bare `as` numeric casts
// ---------------------------------------------------------------------------

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Checks one file for bare `as <numeric-type>` casts.
pub fn check_l4(file: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let masked = test_line_ranges(&tokens);
    let allows = collect_allows(source, Lint::L4);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L4, &allows, &mut out);

    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(idx + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident || !NUMERIC_TYPES.contains(&target.text.as_str()) {
            continue;
        }
        if in_ranges(tok.line, &masked) || allows.lines.contains(&tok.line) {
            continue;
        }
        out.push(Finding {
            lint: Lint::L4,
            file: file.to_string(),
            line: tok.line,
            message: format!("bare `as {}` numeric cast in index-math code", target.text),
            hint: "use TryFrom/try_into (lossy narrowing must be handled, not silenced), a \
                   widening From impl, or add `// lint:allow(L4): <why the value fits>`"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L5 — heap allocation in hot-path kernel modules
// ---------------------------------------------------------------------------

/// Checks one hot-path file for allocating constructs: `vec![..]`,
/// `Vec::new()`, `.to_vec()`, and `.collect::<Vec..>`.
///
/// Token-level like the other lints, so it cannot see through type
/// inference (`.collect()` into an annotated `Vec` binding passes); the
/// counting-allocator test closes that gap at runtime. The four patterns
/// cover every allocation the hot paths historically performed.
pub fn check_l5(file: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let masked = test_line_ranges(&tokens);
    let allows = collect_allows(source, Lint::L5);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L5, &allows, &mut out);

    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let punct_at = |off: usize, ch: char| tokens.get(idx + off).is_some_and(|t| t.is_punct(ch));
        let ident_at =
            |off: usize, name: &str| tokens.get(idx + off).is_some_and(|t| t.is_ident(name));
        let prev_is_dot = idx > 0 && tokens[idx - 1].is_punct('.');
        let name = tok.text.as_str();

        let hit = if name == "vec" && punct_at(1, '!') {
            Some("`vec![..]` allocates in a hot-path kernel module".to_string())
        } else if name == "Vec" && punct_at(1, ':') && punct_at(2, ':') && ident_at(3, "new") {
            Some("`Vec::new()` allocates in a hot-path kernel module".to_string())
        } else if name == "to_vec" && prev_is_dot && punct_at(1, '(') {
            Some("`.to_vec()` allocates in a hot-path kernel module".to_string())
        } else if name == "collect"
            && prev_is_dot
            && punct_at(1, ':')
            && punct_at(2, ':')
            && punct_at(3, '<')
            && ident_at(4, "Vec")
        {
            Some("`.collect::<Vec..>()` allocates in a hot-path kernel module".to_string())
        } else {
            None
        };
        let Some(message) = hit else { continue };
        if in_ranges(tok.line, &masked) || allows.lines.contains(&tok.line) {
            continue;
        }
        out.push(Finding {
            lint: Lint::L5,
            file: file.to_string(),
            line: tok.line,
            message,
            hint: "reuse a KernelScratch/Scratch buffer (the `_with` kernel variants) or write \
                   into a caller-provided `&mut [usize]`; if the allocation is construction-time \
                   or otherwise cold, add `// lint:allow(L5): <why this path is cold>`"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L6 — raw Instant in library code
// ---------------------------------------------------------------------------

/// Checks one library file for direct `Instant` use.
///
/// Timing in library code must go through `rps_obs::Span` /
/// `rps_obs::Stopwatch`, whose clock reads sit behind the global
/// `rps_obs::set_timing` gate — a raw `Instant::now()` reintroduces the
/// ~20–25 ns clock read on every call and cannot be switched off. The
/// check flags the `Instant` identifier itself (imports included, so a
/// `use std::time::Instant;` is caught even before the first call
/// site), deduplicated per line.
pub fn check_l6(file: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let masked = test_line_ranges(&tokens);
    let allows = collect_allows(source, Lint::L6);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L6, &allows, &mut out);

    let mut seen_lines = HashSet::new();
    for tok in &tokens {
        if !tok.is_ident("Instant") {
            continue;
        }
        if in_ranges(tok.line, &masked)
            || allows.lines.contains(&tok.line)
            || !seen_lines.insert(tok.line)
        {
            continue;
        }
        out.push(Finding {
            lint: Lint::L6,
            file: file.to_string(),
            line: tok.line,
            message: "direct `Instant` use in library code bypasses the rps_obs timing gate"
                .to_string(),
            hint: "time through rps_obs::Span / rps_obs::Stopwatch so the set_timing gate \
                   controls the clock read, or add `// lint:allow(L6): <why this timer is cold \
                   or must not be gated>`"
                .to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L7 — lock discipline
// ---------------------------------------------------------------------------

/// Call names that reach the storage/WAL/fsync paths. A guard whose live
/// range spans one of these calls serializes I/O latency under the lock.
/// Purely name-based (no resolution), so the list holds the workspace's
/// actual I/O vocabulary: `PageStore`/`BufferPool`/`Wal`/`DurableEngine`
/// entry points plus the `std::fs`/`File` calls they bottom out in.
pub const L7_IO_CALLS: &[&str] = &[
    "sync_all",
    "sync_data",
    "fsync",
    "flush",
    "write_page",
    "read_page",
    "read_all",
    "alloc_pages",
    "append",
    "replay",
    "checkpoint",
    "recover",
    "scrub",
    "with_page",
    "with_page_mut",
    "create",
    "open",
    "remove_file",
];

/// One `// lock-order: a < b` declaration (a chain `a < b < c` yields
/// consecutive pairs). Declarations are collected workspace-wide and
/// sanction nested guard acquisitions in that order.
#[derive(Debug, Clone)]
pub struct LockOrderDecl {
    /// The lock class that must be acquired first.
    pub before: String,
    /// The lock class that may be acquired while `before` is held.
    pub after: String,
    /// Workspace-relative path of the declaration.
    pub file: String,
    /// 1-based line of the declaration comment.
    pub line: usize,
}

/// One observed nested acquisition: `acquired` taken while `held`'s
/// guard is live. Adjudicated against the declared orders by
/// [`l7_order_findings`].
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Class of the guard already held.
    pub held: String,
    /// Class of the guard being acquired.
    pub acquired: String,
    /// Workspace-relative path of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

/// Per-file output of the L7 scan: immediate findings plus the raw
/// material (edges, declarations) for the workspace-level order check.
#[derive(Debug, Default)]
pub struct L7File {
    /// Guard-across-I/O, same-class nesting, and malformed-escape findings.
    pub findings: Vec<Finding>,
    /// Nested acquisitions to adjudicate against declared orders.
    pub edges: Vec<LockEdge>,
    /// `// lock-order:` declarations found in this file.
    pub decls: Vec<LockOrderDecl>,
}

/// Scans a file for `// lock-order: a < b [< c …]` declarations.
///
/// Returns the expanded adjacent pairs plus findings for malformed
/// declarations (fewer than two classes, or empty segments).
pub fn parse_lock_order_decls(file: &str, source: &str) -> (Vec<LockOrderDecl>, Vec<Finding>) {
    let mut decls = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at..];
        let Some(marker) = comment.find("lock-order:") else {
            continue;
        };
        let spec = comment[marker + "lock-order:".len()..].trim();
        let parts: Vec<&str> = spec.split('<').map(str::trim).collect();
        let well_formed = parts.len() >= 2
            && parts
                .iter()
                .all(|p| !p.is_empty() && p.chars().all(|c| c.is_alphanumeric() || c == '_'));
        if !well_formed {
            findings.push(Finding {
                lint: Lint::L7,
                file: file.to_string(),
                line: line_no,
                message: format!("malformed `lock-order:` declaration `{spec}`"),
                hint: "write `// lock-order: outer < inner` (identifiers are the receiver names \
                       the guards are taken from; chains `a < b < c` are allowed)"
                    .to_string(),
            });
            continue;
        }
        for pair in parts.windows(2) {
            decls.push(LockOrderDecl {
                before: pair[0].to_string(),
                after: pair[1].to_string(),
                file: file.to_string(),
                line: line_no,
            });
        }
    }
    (decls, findings)
}

/// Checks one library file's guard live ranges: flags I/O calls and
/// same-class re-acquisition under a live guard, and collects
/// cross-class nesting edges plus `lock-order` declarations for the
/// workspace-level adjudication in [`l7_order_findings`].
pub fn check_l7(file: &str, source: &str) -> L7File {
    let model = FileModel::parse(source);
    let allows = collect_allows(source, Lint::L7);
    let mut out = L7File::default();
    malformed_to_findings(file, Lint::L7, &allows, &mut out.findings);
    let (decls, decl_findings) = parse_lock_order_decls(file, source);
    out.decls = decls;
    out.findings.extend(decl_findings);

    let mut reported_io: HashSet<usize> = HashSet::new();
    let mut reported_nest: HashSet<usize> = HashSet::new();
    for f in &model.fns {
        let guards = model.guards_in(f.body.0, f.body.1);
        for g in &guards {
            let Some((lo, hi)) = g.live else { continue };
            let Some(binding) = &g.binding else { continue };
            if model.in_test(g.line) || allows.lines.contains(&g.line) {
                continue; // an allow on the acquisition sanctions the whole range
            }
            for c in model.calls_in(lo + 1, hi) {
                if !L7_IO_CALLS.contains(&c.name.as_str())
                    || c.recv.as_deref() == Some(binding.as_str())
                    || allows.lines.contains(&c.line)
                    || !reported_io.insert(c.idx)
                {
                    continue;
                }
                out.findings.push(Finding {
                    lint: Lint::L7,
                    file: file.to_string(),
                    line: c.line,
                    message: format!(
                        "`{}()` called while `{binding}` holds the `{}.{}()` guard from line {}",
                        c.name, g.class, g.method, g.line
                    ),
                    hint: "scope the guard in a block that ends before the I/O (see \
                           FaultyStore::write_page), drop() it early, or add \
                           `// lint:allow(L7): <why the I/O must happen under the guard>`"
                        .to_string(),
                });
            }
            for g2 in &guards {
                if g2.idx <= g.idx
                    || g2.idx > hi
                    || model.in_test(g2.line)
                    || allows.lines.contains(&g2.line)
                {
                    continue;
                }
                if g2.class == g.class {
                    if reported_nest.insert(g2.idx) {
                        out.findings.push(Finding {
                            lint: Lint::L7,
                            file: file.to_string(),
                            line: g2.line,
                            message: format!(
                                "`{}.{}()` acquired while a `{}` guard from line {} is still \
                                 live — same lock class (deadlock / RefCell panic)",
                                g2.class, g2.method, g.class, g.line
                            ),
                            hint: "drop the first guard before re-acquiring (scope it in a \
                                   block), or thread the existing guard through instead of \
                                   taking a second one"
                                .to_string(),
                        });
                    }
                } else {
                    out.edges.push(LockEdge {
                        held: g.class.clone(),
                        acquired: g2.class.clone(),
                        file: file.to_string(),
                        line: g2.line,
                    });
                }
            }
        }
    }
    out
}

/// Adjudicates the collected nesting edges against the declared lock
/// orders: an edge `held → acquired` is sanctioned if `held < acquired`
/// is declared (transitively), an inversion if the reverse is declared,
/// and a finding either way otherwise. Cyclic declarations are findings
/// in their own right.
pub fn l7_order_findings(edges: &[LockEdge], decls: &[LockOrderDecl]) -> Vec<Finding> {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for d in decls {
        adj.entry(d.before.as_str())
            .or_default()
            .push(d.after.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut stack: Vec<&str> = vec![from];
        while let Some(n) = stack.pop() {
            for &next in adj.get(n).map_or(&[][..], Vec::as_slice) {
                if next == to {
                    return true;
                }
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        false
    };

    let mut out = Vec::new();
    let mut cycle_reported: HashSet<(String, usize)> = HashSet::new();
    for d in decls {
        if reaches(&d.after, &d.before) && cycle_reported.insert((d.file.clone(), d.line)) {
            out.push(Finding {
                lint: Lint::L7,
                file: d.file.clone(),
                line: d.line,
                message: format!(
                    "lock-order declarations form a cycle through `{} < {}`",
                    d.before, d.after
                ),
                hint: "a cyclic order sanctions nothing — pick one global order for these lock \
                       classes and fix the declarations"
                    .to_string(),
            });
        }
    }
    for e in edges {
        if reaches(&e.held, &e.acquired) {
            continue; // sanctioned order
        }
        let (message, hint) = if reaches(&e.acquired, &e.held) {
            (
                format!(
                    "lock-order inversion: `{}` is declared to precede `{}`, but `{}` is held \
                     while acquiring `{}`",
                    e.acquired, e.held, e.held, e.acquired
                ),
                "acquire the locks in the declared order (restructure so the outer guard is \
                 taken first), or change the declared order everywhere in the same change"
                    .to_string(),
            )
        } else {
            (
                format!(
                    "nested acquisition `{}` → `{}` has no declared lock order",
                    e.held, e.acquired
                ),
                format!(
                    "declare the sanctioned order with `// lock-order: {} < {}` next to the \
                     locks' definition, or restructure so the guards don't overlap",
                    e.held, e.acquired
                ),
            )
        };
        out.push(Finding {
            lint: Lint::L7,
            file: e.file.clone(),
            line: e.line,
            message,
            hint,
        });
    }
    out
}

/// Convenience for single-file use (fixtures): [`check_l7`] plus
/// [`l7_order_findings`] over that file's own edges and declarations.
pub fn check_l7_single(file: &str, source: &str) -> Vec<Finding> {
    let mut r = check_l7(file, source);
    r.findings.extend(l7_order_findings(&r.edges, &r.decls));
    r.findings.sort_by_key(|f| (f.line, f.message.clone()));
    r.findings
}

// ---------------------------------------------------------------------------
// L8 — error hygiene
// ---------------------------------------------------------------------------

/// The sanctioned `expect` messages in library code. Every entry names a
/// proven invariant; a message outside this list means either a new
/// invariant (extend the list in the same change that introduces and
/// documents it) or a lazy `expect` that should be a typed error.
/// Populated from the audited sites that existed when L8 landed.
pub const EXPECT_MESSAGE_ALLOWLIST: &[&str] = &[
    // ndcube: shape/region constructions proven valid by the caller.
    "view dims match cell count",
    "slice region valid",
    "view region valid",
    "full region of a valid shape is valid",
    "coordinates in bounds",
    "valid dims",
    // rps-core: the paper's ⌈√n⌉ geometry and slot-enumeration invariants.
    "coords ≤ hi",
    "full region is always valid",
    "in-bounds cell",
    "valid shape",
    "sqrt box sizes are valid",
    "box region is valid",
    "enumerated slots are stored",
    "group enumeration yields stored slots",
    "zero-offset cells are stored",
    "corner cells have a zero offset",
    "enumeration yields stored cells",
    "c within its box",
    "b within grid",
    "dim validated by caller",
    "window within base",
    "bucket within base",
    "grid shape valid",
    "block corners ordered",
    "block intersects the region by construction",
    // rps-core concurrency: lock-poisoning policy (fail fast).
    "engine lock poisoned",
    // storage: `PodCell` page cells cut to the checked width.
    "width checked",
    "page count fits u32",
    // workload: generator-internal invariants ("valid dims" shared with
    // ndcube above).
    "query within cube",
    "n >= 1",
    "no NaN",
    "categorical lookup exists",
    "point in bounds",
    "full region",
    "in bounds",
    // analysis: table/cost-model invariants.
    "non-empty range",
];

/// Checks one library file for error-hygiene violations: `let _ =` over
/// a call expression (silently discarded `Result`), and `.expect(..)`
/// messages that are non-literal or off [`EXPECT_MESSAGE_ALLOWLIST`].
pub fn check_l8(file: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let masked = test_line_ranges(&tokens);
    let allows = collect_allows(source, Lint::L8);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L8, &allows, &mut out);
    let lines: Vec<&str> = source.lines().collect();
    let mut expect_seen: HashMap<usize, usize> = HashMap::new();

    for (idx, tok) in tokens.iter().enumerate() {
        // `let _ = <expr containing a call>;` — discards any error.
        if tok.is_ident("let")
            && tokens.get(idx + 1).is_some_and(|t| t.is_ident("_"))
            && tokens.get(idx + 2).is_some_and(|t| t.is_punct('='))
        {
            let mut depth = 0isize;
            let mut has_call = false;
            let mut j = idx + 3;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    if t.is_punct('(') {
                        has_call = true;
                    }
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            if has_call && !in_ranges(tok.line, &masked) && !allows.lines.contains(&tok.line) {
                out.push(Finding {
                    lint: Lint::L8,
                    file: file.to_string(),
                    line: tok.line,
                    message: "`let _ = …(…)` silently discards the call's result — a `Result` \
                              error would vanish here"
                        .to_string(),
                    hint: "propagate with `?`, match on the error, or log it; if the value is \
                           provably infallible or intentionally dropped, add \
                           `// lint:allow(L8): <why>`"
                        .to_string(),
                });
            }
        }

        // `.expect("…")` — the message must be a sanctioned literal.
        if tok.is_ident("expect")
            && idx > 0
            && tokens[idx - 1].is_punct('.')
            && tokens.get(idx + 1).is_some_and(|t| t.is_punct('('))
        {
            let occ_slot = expect_seen.entry(tok.line).or_insert(0);
            let occ = *occ_slot;
            *occ_slot += 1;
            if in_ranges(tok.line, &masked) || allows.lines.contains(&tok.line) {
                continue;
            }
            let hint = "use a message from EXPECT_MESSAGE_ALLOWLIST in crates/xtask/src/lints.rs \
                        (each entry names a proven invariant), extend the list in the change \
                        that introduces the invariant, or return a typed error instead"
                .to_string();
            match expect_message(&lines, tok.line, occ) {
                Some(msg) if EXPECT_MESSAGE_ALLOWLIST.contains(&msg.as_str()) => {}
                Some(msg) => out.push(Finding {
                    lint: Lint::L8,
                    file: file.to_string(),
                    line: tok.line,
                    message: format!(
                        "`.expect(\"{msg}\")` message is not on the sanctioned allowlist"
                    ),
                    hint,
                }),
                None => out.push(Finding {
                    lint: Lint::L8,
                    file: file.to_string(),
                    line: tok.line,
                    message: "`.expect(…)` with a non-literal message — the invariant it \
                              asserts is not reviewable"
                        .to_string(),
                    hint,
                }),
            }
        }
    }
    out
}

/// Extracts the string-literal argument of the `occ`-th `expect(` on
/// `line_no` (falling back to the next line for rustfmt-wrapped
/// arguments). `None` when the argument is not a string literal.
fn expect_message(lines: &[&str], line_no: usize, occ: usize) -> Option<String> {
    let raw = lines.get(line_no.checked_sub(1)?)?;
    let mut pos = 0usize;
    for _ in 0..=occ {
        let hit = raw[pos..].find("expect(")?;
        pos += hit + "expect(".len();
    }
    let rest = raw[pos..].trim_start();
    if rest.is_empty() {
        return leading_string_literal(lines.get(line_no)?.trim_start());
    }
    leading_string_literal(rest)
}

// ---------------------------------------------------------------------------
// L9 — unsafe audit
// ---------------------------------------------------------------------------

/// One `unsafe` occurrence, with its adjacent `// SAFETY:` text when
/// present. The inventory generator lists all sites; L9 flags the ones
/// with `safety: None`.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// What the keyword introduces: `block`, `fn`, `impl`, `trait`, or
    /// `other` (e.g. an `unsafe` in a type position).
    pub kind: &'static str,
    /// First line of the adjacent `// SAFETY:` comment, if any.
    pub safety: Option<String>,
}

/// Scans one file for `unsafe` keywords and their `// SAFETY:` comments.
/// A comment is adjacent if it sits on the `unsafe` line itself or
/// anywhere in the contiguous run of comment/attribute lines directly
/// above it (so multi-line SAFETY prose and `#[inline]`-style attributes
/// don't break adjacency).
pub fn unsafe_sites(source: &str) -> Vec<UnsafeSite> {
    let tokens = tokenize(source);
    let lines: Vec<&str> = source.lines().collect();
    let safety_in = |raw: &str| -> Option<String> {
        let comment = &raw[raw.find("//")?..];
        let text = comment[comment.find("SAFETY:")? + "SAFETY:".len()..].trim();
        Some(if text.is_empty() {
            "(see source)".to_string()
        } else {
            text.to_string()
        })
    };
    let mut out = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let kind = match tokens.get(idx + 1) {
            Some(t) if t.is_punct('{') => "block",
            Some(t) if t.is_ident("fn") => "fn",
            Some(t) if t.is_ident("impl") => "impl",
            Some(t) if t.is_ident("trait") => "trait",
            _ => "other",
        };
        let mut safety = lines.get(tok.line - 1).and_then(|raw| safety_in(raw));
        let mut l = tok.line - 1; // 1-based line above the `unsafe`
        while safety.is_none() && l >= 1 {
            let raw = lines[l - 1].trim_start();
            if !(raw.starts_with("//") || raw.starts_with('#')) {
                break;
            }
            safety = safety_in(raw);
            l -= 1;
        }
        out.push(UnsafeSite {
            line: tok.line,
            kind,
            safety,
        });
    }
    out
}

/// Checks one file for `unsafe` sites lacking a `// SAFETY:` comment.
/// Deliberately NOT test-masked: an unsound `unsafe` in a test corrupts
/// the evidence the test provides.
pub fn check_l9(file: &str, source: &str) -> Vec<Finding> {
    let allows = collect_allows(source, Lint::L9);
    let mut out = Vec::new();
    malformed_to_findings(file, Lint::L9, &allows, &mut out);
    for site in unsafe_sites(source) {
        if site.safety.is_some() || allows.lines.contains(&site.line) {
            continue;
        }
        out.push(Finding {
            lint: Lint::L9,
            file: file.to_string(),
            line: site.line,
            message: format!(
                "`unsafe` {} without an adjacent `// SAFETY:` comment",
                site.kind
            ),
            hint: "state the proof obligation and why it holds in a `// SAFETY:` comment on or \
                   directly above the `unsafe` (≤ 3 lines), then regenerate the inventory with \
                   `cargo xtask lint --unsafe-inventory`"
                .to_string(),
        });
    }
    out
}

/// Every Rust file in the L9 scan scope: the whole workspace source
/// (`crates/`, `compat/`, `src/`), minus the lint fixtures, which are
/// deliberate violations.
pub fn l9_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in ["crates", "compat", "src"] {
        rust_files(&root.join(dir), &mut files)?;
    }
    files.retain(|p| !rel(root, p).starts_with("crates/xtask/tests/fixtures"));
    files.sort();
    Ok(files)
}

/// Renders `docs/UNSAFE_INVENTORY.md`: one table row per `unsafe` site
/// in the workspace, with kind and SAFETY summary. A diff test enforces
/// the committed file both directions, like the obs catalog.
pub fn unsafe_inventory(root: &Path) -> io::Result<String> {
    use std::fmt::Write as _;
    let mut rows = Vec::new();
    for path in l9_files(root)? {
        let name = rel(root, &path);
        for site in unsafe_sites(&fs::read_to_string(&path)?) {
            rows.push((name.clone(), site));
        }
    }
    rows.sort_by(|a, b| (a.0.as_str(), a.1.line).cmp(&(b.0.as_str(), b.1.line)));

    let mut out = String::from(
        "# Unsafe inventory\n\n\
         Generated by `cargo xtask lint --unsafe-inventory` — do not edit by hand.\n\
         Every `unsafe` site in the workspace (library, bench, compat and test\n\
         sources), its kind, and the first line of its adjacent `// SAFETY:`\n\
         comment. The diff test `unsafe_inventory_round_trips` in\n\
         `crates/xtask/tests/semantic_lints.rs` fails when this file and the tree\n\
         disagree in either direction; L9 separately fails any site with no\n\
         SAFETY comment at all.\n\n\
         | location | kind | SAFETY |\n\
         |----------|------|--------|\n",
    );
    let with_safety = rows.iter().filter(|(_, s)| s.safety.is_some()).count();
    for (file, site) in &rows {
        let safety = site
            .safety
            .clone()
            .unwrap_or_else(|| "**MISSING**".to_string())
            .replace('|', "\\|");
        let _ = writeln!(
            out,
            "| `{file}:{}` | `{}` | {safety} |",
            site.line, site.kind
        );
    }
    let _ = writeln!(
        out,
        "\n_Sites: {} ({with_safety} with SAFETY comments)._",
        rows.len()
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Appends every `.rs` file under `dir` (recursively) to `out`, sorted;
/// a missing `dir` adds nothing.
///
/// # Errors
///
/// A directory that exists but cannot be read.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn read(path: &Path) -> io::Result<String> {
    fs::read_to_string(path)
}

/// Runs the enabled lints over the workspace rooted at `root` and
/// returns all findings, sorted by (lint, file, line).
pub fn run_workspace(root: &Path, only: Option<&[Lint]>) -> io::Result<Vec<Finding>> {
    let enabled = |l: Lint| only.is_none_or(|set| set.contains(&l));
    let mut findings = Vec::new();

    if enabled(Lint::L1) || enabled(Lint::L4) {
        let mut files = Vec::new();
        for scope in INDEX_MATH_SRC {
            rust_files(&root.join(scope), &mut files)?;
        }
        for path in &files {
            let name = rel(root, path);
            let source = read(path)?;
            if enabled(Lint::L1) && !L1_ALLOWED_MODULES.contains(&name.as_str()) {
                findings.extend(check_l1(&name, &source));
            }
            if enabled(Lint::L4) {
                findings.extend(check_l4(&name, &source));
            }
        }
    }

    if enabled(Lint::L2) || enabled(Lint::L6) || enabled(Lint::L7) || enabled(Lint::L8) {
        let mut files = Vec::new();
        for scope in L2_LIBRARY_SRC {
            rust_files(&root.join(scope), &mut files)?;
        }
        let mut edges = Vec::new();
        let mut decls = Vec::new();
        for path in &files {
            let name = rel(root, path);
            let source = read(path)?;
            if enabled(Lint::L2) {
                findings.extend(check_l2(&name, &source));
            }
            if enabled(Lint::L6) {
                findings.extend(check_l6(&name, &source));
            }
            if enabled(Lint::L7) {
                let r = check_l7(&name, &source);
                findings.extend(r.findings);
                edges.extend(r.edges);
                decls.extend(r.decls);
            }
            if enabled(Lint::L8) {
                findings.extend(check_l8(&name, &source));
            }
        }
        if enabled(Lint::L7) {
            findings.extend(l7_order_findings(&edges, &decls));
        }
    }

    if enabled(Lint::L9) {
        for path in l9_files(root)? {
            let name = rel(root, &path);
            findings.extend(check_l9(&name, &read(&path)?));
        }
    }

    if enabled(Lint::L5) {
        for module in L5_HOT_PATH_MODULES {
            let path = root.join(module);
            if path.exists() {
                findings.extend(check_l5(module, &read(&path)?));
            }
        }
    }

    if enabled(Lint::L3) {
        for root_file in L3_CRATE_ROOTS {
            let path = root.join(root_file);
            if path.exists() {
                findings.extend(check_l3_crate_root(root_file, &read(&path)?));
            }
        }
        let mut manifests = vec![root.join("Cargo.toml")];
        for dir in L3_MANIFEST_DIRS {
            let parent = root.join(dir);
            if !parent.exists() {
                continue;
            }
            for entry in fs::read_dir(&parent)? {
                let manifest = entry?.path().join("Cargo.toml");
                if manifest.exists() {
                    manifests.push(manifest);
                }
            }
        }
        manifests.sort();
        for manifest in manifests {
            let name = rel(root, &manifest);
            findings.extend(check_l3_manifest(&name, &read(&manifest)?));
        }
    }

    findings.sort_by(|a, b| {
        (a.lint.id(), a.file.as_str(), a.line).cmp(&(b.lint.id(), b.file.as_str(), b.line))
    });
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_escape_suppresses_same_and_next_line() {
        let src = "fn f(xs: &[u64]) -> u64 {\n    // lint:allow(L1): bounds checked by caller\n    xs[0]\n}\n";
        assert!(check_l1("x.rs", src).is_empty());
        let trailing =
            "fn f(xs: &[u64]) -> u64 {\n    xs[0] // lint:allow(L1): bounds checked by caller\n}\n";
        assert!(check_l1("x.rs", trailing).is_empty());
    }

    #[test]
    fn allow_escape_without_reason_is_a_finding() {
        let src = "fn f(xs: &[u64]) -> u64 {\n    // lint:allow(L1)\n    xs[0]\n}\n";
        let found = check_l1("x.rs", src);
        assert_eq!(found.len(), 2, "missing reason + the unsuppressed index");
        assert!(found[0].message.contains("without a reason"));
    }

    #[test]
    fn allow_escape_for_other_lint_does_not_suppress() {
        let src = "fn f(xs: &[u64]) -> u64 {\n    // lint:allow(L2): wrong lint\n    xs[0]\n}\n";
        assert_eq!(check_l1("x.rs", src).len(), 1);
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let xs = vec![1];\n        assert_eq!(xs[0], 1);\n        None::<u64>.unwrap();\n    }\n}\n";
        assert!(check_l1("x.rs", src).is_empty());
        assert!(check_l2("x.rs", src).is_empty());
    }

    #[test]
    fn array_literals_and_types_are_not_indexing() {
        let src = "pub fn f() -> [u64; 2] {\n    let a: [u64; 2] = [1, 2];\n    let _v = vec![0u8; 4];\n    a\n}\n";
        assert!(check_l1("x.rs", src).is_empty());
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        let src = "#[derive(Debug)]\npub struct S;\n#[allow(dead_code)]\nfn g() {}\n";
        assert!(check_l1("x.rs", src).is_empty());
    }

    #[test]
    fn use_as_rename_is_not_a_cast() {
        let src =
            "use std::io::Error as IoError;\npub fn f(x: u32) -> u64 {\n    u64::from(x)\n}\n";
        assert!(check_l4("x.rs", src).is_empty());
    }

    #[test]
    fn l5_flags_each_allocation_pattern() {
        let cases = [
            ("pub fn f() { let _v = vec![0usize; 4]; }\n", "vec!"),
            ("pub fn f() { let _v: Vec<u8> = Vec::new(); }\n", "Vec::new"),
            ("pub fn f(xs: &[u8]) { let _v = xs.to_vec(); }\n", "to_vec"),
            (
                "pub fn f(xs: &[u8]) { let _v = xs.iter().collect::<Vec<_>>(); }\n",
                "collect::<Vec",
            ),
        ];
        for (src, what) in cases {
            let found = check_l5("hot.rs", src);
            assert_eq!(found.len(), 1, "{what} must be flagged");
            assert_eq!(found[0].line, 1, "{what} line");
        }
    }

    #[test]
    fn l5_allow_escape_and_tests_are_exempt() {
        let allowed = "pub fn cold() {\n    // lint:allow(L5): construction path, runs once\n    let _v = vec![0usize; 4];\n}\n";
        assert!(check_l5("hot.rs", allowed).is_empty());
        let test_only = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v = vec![1, 2].to_vec();\n        let _w: Vec<u8> = Vec::new();\n        assert_eq!(v.len(), 2);\n    }\n}\n";
        assert!(check_l5("hot.rs", test_only).is_empty());
    }

    #[test]
    fn l5_does_not_flag_lookalikes() {
        // `Vec::with_capacity` (pre-sizing is the point), a local named
        // `vec` without the macro bang, and an un-turbofished `collect`
        // are all outside the four patterns.
        let src =
            "pub fn f(n: usize) -> Vec<u8> {\n    let vec = Vec::with_capacity(n);\n    vec\n}\n";
        assert!(check_l5("hot.rs", src).is_empty());
        let collect_plain =
            "pub fn g(xs: &[u8]) -> u32 {\n    xs.iter().map(|&x| u32::from(x)).sum()\n}\n";
        assert!(check_l5("hot.rs", collect_plain).is_empty());
    }

    #[test]
    fn l5_allow_without_reason_is_a_finding() {
        let src = "pub fn f() {\n    // lint:allow(L5)\n    let _v = vec![0usize; 4];\n}\n";
        let found = check_l5("hot.rs", src);
        assert_eq!(found.len(), 2, "missing reason + the unsuppressed vec!");
        assert!(found[0].message.contains("without a reason"));
    }

    #[test]
    fn l6_flags_instant_once_per_line() {
        let src = "use std::time::Instant;\npub fn f() -> u128 {\n    let t: Instant = Instant::now();\n    t.elapsed().as_nanos()\n}\n";
        let found = check_l6("lib.rs", src);
        assert_eq!(found.len(), 2, "import line + call line, deduped per line");
        assert_eq!(found[0].line, 1);
        assert_eq!(
            found[1].line, 3,
            "two `Instant` tokens on line 3 report once"
        );
    }

    #[test]
    fn l6_allow_escape_and_tests_are_exempt() {
        let allowed = "pub fn cold() {\n    // lint:allow(L6): one-shot startup timer, off the hot path\n    let _t = std::time::Instant::now();\n}\n";
        assert!(check_l6("lib.rs", allowed).is_empty());
        let test_only = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _t = std::time::Instant::now();\n    }\n}\n";
        assert!(check_l6("lib.rs", test_only).is_empty());
    }

    #[test]
    fn l6_does_not_flag_span_or_stopwatch() {
        let src = "pub fn f(h: &rps_obs::Histogram) {\n    let _span = rps_obs::Span::start(h);\n    let sw = rps_obs::Stopwatch::start();\n    let _ = sw.elapsed_ns();\n}\n";
        assert!(check_l6("lib.rs", src).is_empty());
    }

    #[test]
    fn manifest_without_lints_table_fails() {
        let bad = "[package]\nname = \"demo\"\n";
        assert_eq!(check_l3_manifest("Cargo.toml", bad).len(), 1);
        let good = "[package]\nname = \"demo\"\n\n[lints]\nworkspace = true\n";
        assert!(check_l3_manifest("Cargo.toml", good).is_empty());
    }
}
