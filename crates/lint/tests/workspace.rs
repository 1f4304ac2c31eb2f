//! End-to-end checks against the real workspace: the shipped tree must
//! be clean modulo the checked-in baseline, and the engine must still
//! catch a deliberately injected violation in real serving code.

use qrec_lint::{analyze, Baseline, Config, FileClass, SourceFile};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The acceptance bar for the PR: `cargo run -p qrec-lint` on the real
/// workspace reports zero violations that are not in the baseline.
#[test]
fn real_workspace_has_no_fresh_violations() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    assert!(
        ws.files.len() > 50,
        "walker should see the whole workspace, got {} files",
        ws.files.len()
    );
    let baseline = match std::fs::read_to_string(root.join("lint-baseline.toml")) {
        Ok(text) => Baseline::parse(&text).expect("baseline parses"),
        Err(_) => Baseline::default(),
    };
    let fresh: Vec<_> = analyze(&ws.files, &ws.config)
        .into_iter()
        .filter(|f| !baseline.contains(f))
        .collect();
    assert!(
        fresh.is_empty(),
        "fresh violations in the shipped tree:\n{}",
        fresh
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Self-test from the issue: seed a real hot-path file
/// (`crates/serve/src/batcher.rs`) with an `.unwrap()` and prove the
/// engine fails on it. Guards against the rules rotting into no-ops
/// while the workspace stays green.
#[test]
fn injected_unwrap_in_batcher_is_caught() {
    let root = workspace_root();
    let path = root.join("crates/serve/src/batcher.rs");
    let clean = std::fs::read_to_string(&path).expect("read batcher.rs");

    // Splice a panicking line into non-test library code: right after
    // the first `use ` line, well before any `#[cfg(test)]` module.
    let insert_at = clean.find("use ").expect("batcher.rs has imports");
    let line_end = clean[insert_at..].find('\n').expect("newline") + insert_at + 1;
    let seeded = format!(
        "{}fn injected_probe(x: Option<u32>) -> u32 {{ x.unwrap() }}\n{}",
        &clean[..line_end],
        &clean[line_end..]
    );

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: "crates/serve/src/batcher.rs".into(),
                crate_name: "serve".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };

    assert!(
        lint(&clean).is_empty(),
        "shipped batcher.rs must be clean for the injection to be the delta"
    );
    let findings = lint(&seeded);
    assert_eq!(findings.len(), 1, "exactly the injected line: {findings:?}");
    assert_eq!(findings[0].rule, "no-panic-in-hot-path");
    assert_eq!(findings[0].file, "crates/serve/src/batcher.rs");
}

/// The tensor crate — home of the GEMM kernel — is hot-path code: the
/// walker must classify the kernel as a library file and R1 must fire on
/// a panic seeded into it.
#[test]
fn tensor_kernel_is_hot_path() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    assert!(
        ws.config.hot_path_crates.iter().any(|c| c == "tensor"),
        "tensor must be a hot-path crate: {:?}",
        ws.config.hot_path_crates
    );
    let rel = "crates/tensor/src/kernel.rs".to_string();
    let file = ws
        .files
        .iter()
        .find(|f| f.path == rel)
        .unwrap_or_else(|| panic!("walker must see {rel}"));
    assert_eq!(file.class, FileClass::Library, "{rel} is library code");
    assert_eq!(file.crate_name, "tensor");

    // Seed a panic into the real module text and prove R1 catches
    // exactly that delta (the shipped text must already be clean).
    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.clone(),
                crate_name: "tensor".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&file.text).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn injected(x: Option<u32>) -> u32 {{ x.unwrap() }}\n{}",
        file.text
    );
    let findings = lint(&seeded);
    assert_eq!(findings.len(), 1, "exactly the injected line: {findings:?}");
    assert_eq!(findings[0].rule, "no-panic-in-hot-path");
}

/// The incremental-decode state module is hot-path library code in
/// `nn`: the shipped text is clean, and an injected panic is caught as
/// exactly one R1 finding (same self-test shape as the tensor kernel).
#[test]
fn incremental_decode_state_is_hot_path() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    assert!(
        ws.config.hot_path_crates.iter().any(|c| c == "nn"),
        "nn must be a hot-path crate: {:?}",
        ws.config.hot_path_crates
    );
    let rel = "crates/nn/src/incremental.rs";
    let file = ws
        .files
        .iter()
        .find(|f| f.path == rel)
        .unwrap_or_else(|| panic!("walker must see {rel}"));
    assert_eq!(file.class, FileClass::Library, "{rel} is library code");
    assert_eq!(file.crate_name, "nn");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "nn".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&file.text).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn injected(x: Option<u32>) -> u32 {{ x.unwrap() }}\n{}",
        file.text
    );
    let findings = lint(&seeded);
    assert_eq!(findings.len(), 1, "exactly the injected line: {findings:?}");
    assert_eq!(findings[0].rule, "no-panic-in-hot-path");
}

/// The metric hot path in `qrec-obs` must stay allocation-free: the
/// shipped `metric.rs` is clean under R7, and an allocation seeded into
/// a recording function is caught as exactly one finding.
#[test]
fn obs_metric_record_path_is_allocation_free() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    assert!(
        ws.config.hot_path_crates.iter().any(|c| c == "obs"),
        "obs must be covered by the metric-path rule: {:?}",
        ws.config.hot_path_crates
    );
    let rel = "crates/obs/src/metric.rs";
    let file = ws
        .files
        .iter()
        .find(|f| f.path == rel)
        .unwrap_or_else(|| panic!("walker must see {rel}"));
    assert_eq!(file.class, FileClass::Library, "{rel} is library code");
    assert_eq!(file.crate_name, "obs");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "obs".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&file.text).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "pub fn record_injected(v: u64) -> usize {{ v.to_string().len() }}\n{}",
        file.text
    );
    let findings = lint(&seeded);
    assert_eq!(
        findings.len(),
        1,
        "exactly the injected allocation: {findings:?}"
    );
    assert_eq!(findings[0].rule, "no-alloc-in-metric-path");
}

/// The telemetry-engine modules — the window ring, the SpaceSaving
/// sketch, and the drift scorer — are metric-path library code in
/// `obs`: each shipped module is clean under R7, and an allocation
/// seeded into a recording function of each is caught as exactly one
/// finding.
#[test]
fn telemetry_modules_keep_record_paths_allocation_free() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    for module in ["window", "sketch", "drift"] {
        let rel = format!("crates/obs/src/{module}.rs");
        let file = ws
            .files
            .iter()
            .find(|f| f.path == rel)
            .unwrap_or_else(|| panic!("walker must see {rel}"));
        assert_eq!(file.class, FileClass::Library, "{rel} is library code");
        assert_eq!(file.crate_name, "obs");

        let lint = |text: &str| {
            analyze(
                &[SourceFile {
                    path: rel.clone(),
                    crate_name: "obs".into(),
                    class: FileClass::Library,
                    text: text.into(),
                }],
                &Config::default(),
            )
        };
        assert!(
            lint(&file.text).is_empty(),
            "shipped {rel} must be clean for the injection to be the delta"
        );
        let seeded = format!(
            "pub fn record_injected(v: u64) -> usize {{ v.to_string().len() }}\n{}",
            file.text
        );
        let findings = lint(&seeded);
        assert_eq!(
            findings.len(),
            1,
            "exactly the injected allocation in {rel}: {findings:?}"
        );
        assert_eq!(findings[0].rule, "no-alloc-in-metric-path");
    }
}

/// The durable store is hot-path library code (every session write
/// crosses its WAL): the shipped modules are clean, and an injected
/// panic in the WAL append path is caught as exactly one R1 finding.
#[test]
fn store_wal_path_is_hot_path() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    assert!(
        ws.config.hot_path_crates.iter().any(|c| c == "store"),
        "store must be a hot-path crate: {:?}",
        ws.config.hot_path_crates
    );
    assert!(
        ws.config.lock_call_crates.iter().any(|c| c == "store"),
        "store must be covered by the lock-across-call rule: {:?}",
        ws.config.lock_call_crates
    );
    for module in ["wal", "store"] {
        let rel = format!("crates/store/src/{module}.rs");
        let file = ws
            .files
            .iter()
            .find(|f| f.path == rel)
            .unwrap_or_else(|| panic!("walker must see {rel}"));
        assert_eq!(file.class, FileClass::Library, "{rel} is library code");
        assert_eq!(file.crate_name, "store");

        let lint = |text: &str| {
            analyze(
                &[SourceFile {
                    path: rel.clone(),
                    crate_name: "store".into(),
                    class: FileClass::Library,
                    text: text.into(),
                }],
                &Config::default(),
            )
        };
        assert!(
            lint(&file.text).is_empty(),
            "shipped {rel} must be clean for the injection to be the delta"
        );
        let seeded = format!(
            "fn injected(x: Option<u32>) -> u32 {{ x.unwrap() }}\n{}",
            file.text
        );
        let findings = lint(&seeded);
        assert_eq!(findings.len(), 1, "exactly the injected line: {findings:?}");
        assert_eq!(findings[0].rule, "no-panic-in-hot-path");
    }
}

/// The int8 quantization layer — the qi8 kernels in `tensor` and the
/// sidecar plumbing in `nn` — is decode-hot-path library code: the
/// shipped modules are clean, and an injected panic in each is caught
/// as exactly one R1 finding.
#[test]
fn quantized_decode_modules_are_hot_path() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    for (rel, crate_name) in [
        ("crates/tensor/src/qi8.rs", "tensor"),
        ("crates/nn/src/quant.rs", "nn"),
        ("crates/nn/src/decode.rs", "nn"),
    ] {
        assert!(
            ws.config.hot_path_crates.iter().any(|c| c == crate_name),
            "{crate_name} must be a hot-path crate: {:?}",
            ws.config.hot_path_crates
        );
        let file = ws
            .files
            .iter()
            .find(|f| f.path == rel)
            .unwrap_or_else(|| panic!("walker must see {rel}"));
        assert_eq!(file.class, FileClass::Library, "{rel} is library code");
        assert_eq!(file.crate_name, crate_name);

        let lint = |text: &str| {
            analyze(
                &[SourceFile {
                    path: rel.into(),
                    crate_name: crate_name.into(),
                    class: FileClass::Library,
                    text: text.into(),
                }],
                &Config::default(),
            )
        };
        assert!(
            lint(&file.text).is_empty(),
            "shipped {rel} must be clean for the injection to be the delta"
        );
        let seeded = format!(
            "fn injected(x: Option<u32>) -> u32 {{ x.unwrap() }}\n{}",
            file.text
        );
        let findings = lint(&seeded);
        assert_eq!(findings.len(), 1, "exactly the injected line: {findings:?}");
        assert_eq!(findings[0].rule, "no-panic-in-hot-path");
    }
}

/// R10 reaches through the quantized kernel module: a decode-named
/// entry seeded into `qi8.rs` whose callee blocks on fsync is flagged,
/// proving the int8 GEMM participates in the hot-entry reachability
/// analysis like any other decode-path code.
#[test]
fn injected_blocking_call_in_qi8_under_decode_entry_is_caught() {
    let root = workspace_root();
    let rel = "crates/tensor/src/qi8.rs";
    let clean = std::fs::read_to_string(root.join(rel)).expect("read qi8.rs");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "tensor".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&clean).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn decode_quant_injected(s: &InjState) {{ injected_flush(s); }}\n\
         fn injected_flush(s: &InjState) {{ s.inj_file.sync_all(); }}\n\
         {clean}"
    );
    let findings = lint(&seeded);
    assert_eq!(
        findings.len(),
        1,
        "exactly the injected fsync: {findings:?}"
    );
    assert_eq!(findings[0].rule, "blocking-call-in-hot-path");
    assert!(
        findings[0].message.contains("tensor:decode_quant_injected"),
        "message names the decode entry: {}",
        findings[0].message
    );
}

/// R8 self-test: seed an ABBA pair into real decoder-state code and
/// prove the inversion is caught as exactly one finding.
#[test]
fn injected_lock_inversion_is_caught() {
    let root = workspace_root();
    let rel = "crates/nn/src/incremental.rs";
    let clean = std::fs::read_to_string(root.join(rel)).expect("read incremental.rs");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "nn".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&clean).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn injected_fwd(p: &InjPair) {{ let _a = p.inj_alpha.lock(); let _b = p.inj_beta.lock(); }}\n\
         fn injected_bwd(p: &InjPair) {{ let _b = p.inj_beta.lock(); let _a = p.inj_alpha.lock(); }}\n\
         {clean}"
    );
    let findings = lint(&seeded);
    assert_eq!(
        findings.len(),
        1,
        "exactly the injected cycle: {findings:?}"
    );
    assert_eq!(findings[0].rule, "lock-order-inversion");
}

/// R9 self-test: seed a `Relaxed` publication store into the real
/// metric module and prove it is caught as exactly one finding.
#[test]
fn injected_relaxed_publication_store_is_caught() {
    let root = workspace_root();
    let rel = "crates/obs/src/metric.rs";
    let clean = std::fs::read_to_string(root.join(rel)).expect("read metric.rs");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "obs".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&clean).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn injected_publish(p: &InjProbe) {{ p.inj_ready.store(true, Ordering::Relaxed); }}\n\
         {clean}"
    );
    let findings = lint(&seeded);
    assert_eq!(
        findings.len(),
        1,
        "exactly the injected store: {findings:?}"
    );
    assert_eq!(findings[0].rule, "atomics-ordering-hygiene");
}

/// R10 self-test: seed a recommend-entry → fsync chain into the real
/// batcher and prove the reachability analysis flags the fsync line.
#[test]
fn injected_blocking_call_under_hot_entry_is_caught() {
    let root = workspace_root();
    let rel = "crates/serve/src/batcher.rs";
    let clean = std::fs::read_to_string(root.join(rel)).expect("read batcher.rs");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "serve".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&clean).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn recommend_injected(s: &InjState) {{ injected_persist(s); }}\n\
         fn injected_persist(s: &InjState) {{ s.inj_file.sync_all(); }}\n\
         {clean}"
    );
    let findings = lint(&seeded);
    assert_eq!(
        findings.len(),
        1,
        "exactly the injected fsync: {findings:?}"
    );
    assert_eq!(findings[0].rule, "blocking-call-in-hot-path");
    assert!(
        findings[0].message.contains("serve:recommend_injected"),
        "message names the entry point: {}",
        findings[0].message
    );
}

/// The serve event loop and the vendored `polling` shim it runs on are
/// both hot-path library code: the walker promotes the shim out of the
/// safety-comments-only class, and R1 fires on a panic seeded into
/// either file.
#[test]
fn eventloop_and_polling_shim_are_hot_path() {
    let root = workspace_root();
    let ws = qrec_lint::collect_workspace(&root).expect("walk workspace");
    assert!(
        ws.config.hot_path_crates.iter().any(|c| c == "polling"),
        "polling must be a hot-path crate: {:?}",
        ws.config.hot_path_crates
    );
    for (rel, crate_name) in [
        ("crates/serve/src/eventloop.rs", "serve"),
        ("shims/polling/src/lib.rs", "polling"),
    ] {
        let file = ws
            .files
            .iter()
            .find(|f| f.path == rel)
            .unwrap_or_else(|| panic!("walker must see {rel}"));
        assert_eq!(file.class, FileClass::Library, "{rel} is library code");
        assert_eq!(file.crate_name, crate_name);

        let lint = |text: &str| {
            analyze(
                &[SourceFile {
                    path: rel.into(),
                    crate_name: crate_name.into(),
                    class: FileClass::Library,
                    text: text.into(),
                }],
                &Config::default(),
            )
        };
        assert!(
            lint(&file.text).is_empty(),
            "shipped {rel} must be clean for the injection to be the delta"
        );
        let seeded = format!(
            "fn injected(x: Option<u32>) -> u32 {{ x.unwrap() }}\n{}",
            file.text
        );
        let findings = lint(&seeded);
        assert_eq!(findings.len(), 1, "exactly the injected line: {findings:?}");
        assert_eq!(findings[0].rule, "no-panic-in-hot-path");
    }
}

/// R10 treats the `tick*` family as hot entries: a tick-named function
/// seeded into the real event-loop module whose callee blocks on fsync
/// is flagged — one stalled tick stalls every connection, so blocking
/// calls must never be reachable from the loop.
#[test]
fn injected_blocking_call_under_tick_entry_is_caught() {
    let root = workspace_root();
    let rel = "crates/serve/src/eventloop.rs";
    let clean = std::fs::read_to_string(root.join(rel)).expect("read eventloop.rs");

    let lint = |text: &str| {
        analyze(
            &[SourceFile {
                path: rel.into(),
                crate_name: "serve".into(),
                class: FileClass::Library,
                text: text.into(),
            }],
            &Config::default(),
        )
    };
    assert!(
        lint(&clean).is_empty(),
        "shipped {rel} must be clean for the injection to be the delta"
    );
    let seeded = format!(
        "fn tick_injected(s: &InjState) {{ injected_flush(s); }}\n\
         fn injected_flush(s: &InjState) {{ s.inj_file.sync_all(); }}\n\
         {clean}"
    );
    let findings = lint(&seeded);
    assert_eq!(
        findings.len(),
        1,
        "exactly the injected fsync: {findings:?}"
    );
    assert_eq!(findings[0].rule, "blocking-call-in-hot-path");
    assert!(
        findings[0].message.contains("serve:tick_injected"),
        "message names the tick entry: {}",
        findings[0].message
    );
}

/// An allow directive without the mandatory `-- <reason>` must not
/// suppress the violation, and is itself reported.
#[test]
fn allow_without_reason_is_rejected() {
    let text = "\
pub fn hot(x: Option<u32>) -> u32 {
    // qrec-lint: allow(no-panic-in-hot-path)
    x.unwrap()
}
";
    let findings = analyze(
        &[SourceFile {
            path: "crates/serve/src/x.rs".into(),
            crate_name: "serve".into(),
            class: FileClass::Library,
            text: text.into(),
        }],
        &Config::default(),
    );
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(
        rules.contains(&"malformed-allow"),
        "missing reason is itself a finding: {findings:?}"
    );
    assert!(
        rules.contains(&"no-panic-in-hot-path"),
        "a reasonless allow must not suppress the violation: {findings:?}"
    );
}

/// The same directive *with* a reason suppresses the violation.
#[test]
fn allow_with_reason_suppresses() {
    let text = "\
pub fn hot(x: Option<u32>) -> u32 {
    // qrec-lint: allow(no-panic-in-hot-path) -- invariant: caller checked is_some
    x.unwrap()
}
";
    let findings = analyze(
        &[SourceFile {
            path: "crates/serve/src/x.rs".into(),
            crate_name: "serve".into(),
            class: FileClass::Library,
            text: text.into(),
        }],
        &Config::default(),
    );
    assert!(
        findings.is_empty(),
        "reasoned allow suppresses: {findings:?}"
    );
}
