//! Fixture tests for the `cargo xtask lint` checks: each lint must fire
//! on its seeded-violation fixture (negative fixtures) and stay silent
//! on the clean fixture — and the real workspace must be lint-clean.

use std::path::{Path, PathBuf};

use xtask::lints::{
    check_l1, check_l2, check_l3_crate_root, check_l3_manifest, check_l4, check_l5, check_l6,
    run_workspace, rust_files, Finding, Lint, EXPECT_MESSAGE_ALLOWLIST, L1_ALLOWED_MODULES,
    L2_LIBRARY_SRC, L3_CRATE_ROOTS, L5_HOT_PATH_MODULES,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn lines(findings: &[Finding]) -> Vec<usize> {
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn l1_fires_on_raw_indexing() {
    let found = check_l1("l1_raw_index.rs", &fixture("l1_raw_index.rs"));
    // Line 5: xs[0]; line 6: xs[..] and strides[..]; line 7: xs[2..].
    assert_eq!(lines(&found), vec![5, 6, 6, 7], "findings: {found:#?}");
    for f in &found {
        assert_eq!(f.lint, Lint::L1);
        assert!(!f.hint.is_empty(), "every finding carries a fix hint");
    }
}

#[test]
fn l2_fires_on_panic_family() {
    let found = check_l2("l2_panics.rs", &fixture("l2_panics.rs"));
    assert_eq!(lines(&found), vec![5, 7, 13, 17], "findings: {found:#?}");
    let messages: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("unwrap"));
    assert!(messages[1].contains("panic!"));
    assert!(messages[2].contains("expect"));
    assert!(messages[3].contains("todo!"));
}

#[test]
fn l2_fires_on_io_unwraps() {
    // The storage-crate pattern: panicking on I/O results. The escaped
    // write and the test-module unwrap stay silent.
    let found = check_l2("l2_io_unwrap.rs", &fixture("l2_io_unwrap.rs"));
    assert_eq!(lines(&found), vec![9, 10, 14, 18], "findings: {found:#?}");
    let messages: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("unwrap"));
    assert!(messages[1].contains("expect"));
    assert!(messages[2].contains("unwrap"));
    assert!(messages[3].contains("unwrap_err"));
    for f in &found {
        assert_eq!(f.lint, Lint::L2);
        assert!(
            f.hint.contains("typed error"),
            "hint points at the Result/StorageError fix"
        );
    }
}

#[test]
fn l2_scope_covers_the_storage_crate() {
    // The durable stack's library paths must stay under the no-panic
    // policy: a regression that drops `crates/storage/src` from the L2
    // scope fails here, not silently in a future review.
    assert!(
        L2_LIBRARY_SRC.contains(&"crates/storage/src"),
        "L2 must scan crates/storage/src; scope is {L2_LIBRARY_SRC:?}"
    );
}

#[test]
fn l3_fires_on_missing_headers() {
    let found = check_l3_crate_root("l3_missing_header.rs", &fixture("l3_missing_header.rs"));
    assert_eq!(found.len(), 2, "both headers missing: {found:#?}");
    assert!(found[0].message.contains("forbid(unsafe_code)"));
    assert!(found[1].message.contains("missing_docs"));
}

#[test]
fn l3_fires_on_manifest_without_workspace_lints() {
    let bad = "[package]\nname = \"demo\"\nversion = \"0.0.0\"\n";
    let found = check_l3_manifest("Cargo.toml", bad);
    assert_eq!(found.len(), 1);
    assert!(found[0].hint.contains("workspace = true"));
}

#[test]
fn l4_fires_on_bare_casts() {
    let found = check_l4("l4_bare_cast.rs", &fixture("l4_bare_cast.rs"));
    assert_eq!(lines(&found), vec![5, 10, 10], "findings: {found:#?}");
    assert!(found[0].message.contains("as usize"));
    assert!(found[1].message.contains("as f64"));
}

#[test]
fn l5_fires_on_hot_path_allocations() {
    let found = check_l5("l5_hot_alloc.rs", &fixture("l5_hot_alloc.rs"));
    // Line 5: vec!; line 6: Vec::new; line 7: .to_vec(); line 8:
    // .collect::<Vec..>. The escaped and test-module allocations stay
    // silent.
    assert_eq!(lines(&found), vec![5, 6, 7, 8], "findings: {found:#?}");
    let messages: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("vec!"));
    assert!(messages[1].contains("Vec::new"));
    assert!(messages[2].contains("to_vec"));
    assert!(messages[3].contains("collect"));
    for f in &found {
        assert_eq!(f.lint, Lint::L5);
        assert!(f.hint.contains("KernelScratch"), "hint teaches the fix");
    }
}

#[test]
fn l5_scope_covers_the_lane_kernels() {
    // The lane-kernel module joined the hot path in the SIMD-width
    // rewrite; dropping it from the L5 scan would let allocations creep
    // into the innermost loops unnoticed.
    assert!(
        L5_HOT_PATH_MODULES.contains(&"crates/rps-core/src/rps/kernels.rs"),
        "kernels.rs must stay L5-scanned; scope is {L5_HOT_PATH_MODULES:?}"
    );
}

#[test]
fn l5_scope_covers_the_fenwick_engine() {
    // The binary Fenwick engine's queries and point updates walk their
    // chains on reused scratch buffers; the L5 scan keeps a per-call
    // `vec!` from coming back.
    assert!(
        L5_HOT_PATH_MODULES.contains(&"crates/rps-core/src/fenwick.rs"),
        "fenwick.rs must stay L5-scanned; scope is {L5_HOT_PATH_MODULES:?}"
    );
}

#[test]
fn lint_scope_covers_the_blocked_fenwick_engine() {
    // The cache-blocked b-ary Fenwick engine joined the hot path with
    // the range-update work: its chain walks are audited raw-index
    // kernels (L1) and its query/update paths must stay allocation-free
    // (L5). Dropping it from either scan would let regressions creep in.
    assert!(
        L5_HOT_PATH_MODULES.contains(&"crates/rps-core/src/blocked_fenwick.rs"),
        "blocked_fenwick.rs must stay L5-scanned; scope is {L5_HOT_PATH_MODULES:?}"
    );
    assert!(
        L1_ALLOWED_MODULES.contains(&"crates/rps-core/src/blocked_fenwick.rs"),
        "blocked_fenwick.rs chain walks are audited raw-index kernels; scope is {L1_ALLOWED_MODULES:?}"
    );
}

#[test]
fn l6_fires_on_raw_instant() {
    let found = check_l6("l6_instant.rs", &fixture("l6_instant.rs"));
    // Line 2: the import; line 5: the annotated `Instant::now()` call
    // (two tokens, one finding). The escaped cold-path timer and the
    // test-module timer stay silent.
    assert_eq!(lines(&found), vec![2, 5], "findings: {found:#?}");
    for f in &found {
        assert_eq!(f.lint, Lint::L6);
        assert!(
            f.hint.contains("rps_obs::Span"),
            "hint points at the gated timers"
        );
    }
}

#[test]
fn l6_scope_excludes_the_obs_crate() {
    // `crates/obs` is the sanctioned home of the `Instant` reads; it
    // must stay out of the shared library-src scope L6 scans.
    assert!(
        !L2_LIBRARY_SRC.contains(&"crates/obs/src"),
        "crates/obs must not be L6-scanned; scope is {L2_LIBRARY_SRC:?}"
    );
}

#[test]
fn clean_fixture_passes_every_lint() {
    let src = fixture("clean.rs");
    assert!(check_l1("clean.rs", &src).is_empty());
    assert!(check_l2("clean.rs", &src).is_empty());
    assert!(check_l3_crate_root("clean.rs", &src).is_empty());
    assert!(check_l4("clean.rs", &src).is_empty());
    assert!(check_l5("clean.rs", &src).is_empty());
    assert!(check_l6("clean.rs", &src).is_empty());
}

#[test]
fn allow_escape_without_reason_is_rejected() {
    let src = "pub fn f(i: i64) -> usize {\n    // lint:allow(L4)\n    i as usize\n}\n";
    let found = check_l4("x.rs", src);
    assert_eq!(found.len(), 2, "bad escape + unsuppressed cast: {found:#?}");
    assert!(found[0].message.contains("without a reason"));
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// The lint scopes name no file that is gone and allow no `expect`
/// message that no library code uses. A scope entry outlives its file
/// silently: `run_workspace` skips a missing L5 or L3 file without a
/// finding, so a renamed hot-path module would drop out of the
/// allocation lint unnoticed.
#[test]
fn lint_scopes_have_no_stale_entries() {
    let root = workspace_root();
    let missing: Vec<&str> = L1_ALLOWED_MODULES
        .iter()
        .chain(L5_HOT_PATH_MODULES)
        .chain(L3_CRATE_ROOTS)
        .copied()
        .filter(|file| !root.join(file).is_file())
        .collect();
    assert!(
        missing.is_empty(),
        "lint scopes name missing files: {missing:?}"
    );

    let mut files = Vec::new();
    for dir in L2_LIBRARY_SRC {
        rust_files(&root.join(dir), &mut files).expect("library sources are readable");
    }
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("readable source"))
        .collect();
    let unused: Vec<&str> = EXPECT_MESSAGE_ALLOWLIST
        .iter()
        .copied()
        .filter(|msg| {
            let literal = format!("\"{msg}\"");
            !sources.iter().any(|src| src.contains(&literal))
        })
        .collect();
    assert!(
        unused.is_empty(),
        "allowlisted expect messages no library source uses: {unused:?}"
    );
}

/// The acceptance criterion: `cargo xtask lint` passes on the real
/// workspace. Running the driver in-process keeps the gate inside
/// `cargo test`, so tier-1 itself fails if a violation lands.
#[test]
fn real_workspace_is_lint_clean() {
    let findings = run_workspace(&workspace_root(), None).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
