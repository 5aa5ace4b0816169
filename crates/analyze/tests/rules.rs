//! Fixture-driven tests: every rule gets a positive case (fires), a
//! negative case (clean), and a pragma-suppressed case; plus the pragma
//! contract itself (missing reason / unknown rule are rejected).

use metam_analyze::analyze_source;

fn rules_fired(report: &metam_analyze::Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// --- panic-in-lib -------------------------------------------------------

#[test]
fn panic_in_lib_fires_on_each_token() {
    for snippet in [
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        "pub fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }",
        "pub fn f() { panic!(\"boom\"); }",
        "pub fn f() { unreachable!(); }",
        "pub fn f() { todo!(); }",
    ] {
        let report = analyze_source("crates/core/src/engine.rs", snippet);
        assert_eq!(rules_fired(&report), vec!["panic-in-lib"], "{snippet}");
    }
}

#[test]
fn panic_in_lib_ignores_tests_strings_comments_and_nonlib() {
    // Inside a #[cfg(test)] module.
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}";
    assert!(analyze_source("crates/core/src/a.rs", src).clean());
    // Inside a string literal or comment.
    let src = "pub fn f() -> &'static str { \"call .unwrap()\" } // or .expect(it)";
    assert!(analyze_source("crates/core/src/a.rs", src).clean());
    // In a bench target, an integration test, or a binary.
    let src = "fn main() { run().unwrap(); }";
    assert!(analyze_source("crates/bench/benches/join.rs", src).clean());
    assert!(analyze_source("tests/session_api.rs", src).clean());
    assert!(analyze_source("src/bin/metam.rs", src).clean());
    // unwrap_or / unwrap_or_else are not panics.
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
    assert!(analyze_source("crates/core/src/a.rs", src).clean());
}

#[test]
fn panic_in_lib_pragma_suppresses_and_is_recorded() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    \
               x.unwrap() // metam-analyze: allow(panic-in-lib): invariant holds by construction\n}";
    let report = analyze_source("crates/core/src/a.rs", src);
    assert!(report.clean());
    assert_eq!(report.suppressions.len(), 1);
    assert_eq!(report.suppressions[0].rule, "panic-in-lib");
    assert_eq!(
        report.suppressions[0].reason,
        "invariant holds by construction"
    );
    // Pragma on the line above works too.
    let src = "// metam-analyze: allow(panic-in-lib): fixture invariant\nlet y = x.unwrap();";
    assert!(analyze_source("crates/core/src/a.rs", src).clean());
}

#[test]
fn pragma_does_not_leak_to_other_lines_or_rules() {
    // Two lines below the pragma: still a finding.
    let src = "// metam-analyze: allow(panic-in-lib): close only\nlet a = 1;\nlet y = x.unwrap();";
    let report = analyze_source("crates/core/src/a.rs", src);
    assert_eq!(rules_fired(&report), vec!["panic-in-lib"]);
    // A pragma for a different rule does not suppress.
    let src = "let y = x.unwrap(); // metam-analyze: allow(raw-thread-spawn): wrong rule";
    let report = analyze_source("crates/core/src/a.rs", src);
    assert_eq!(rules_fired(&report), vec!["panic-in-lib"]);
}

// --- pragma contract ----------------------------------------------------

#[test]
fn pragma_without_reason_is_rejected() {
    let src = "let y = x.unwrap(); // metam-analyze: allow(panic-in-lib)";
    let report = analyze_source("crates/core/src/a.rs", src);
    let fired = rules_fired(&report);
    assert!(
        fired.contains(&"invalid-pragma"),
        "reasonless pragma must be a finding, got {fired:?}"
    );
    assert!(
        fired.contains(&"panic-in-lib"),
        "a reasonless pragma must not suppress, got {fired:?}"
    );
    // Trailing punctuation with no text is still reasonless.
    let src = "let y = x.unwrap(); // metam-analyze: allow(panic-in-lib):";
    assert!(rules_fired(&analyze_source("crates/core/src/a.rs", src)).contains(&"invalid-pragma"));
}

#[test]
fn pragma_with_unknown_rule_is_rejected() {
    let src = "let a = 1; // metam-analyze: allow(no-such-rule): because";
    let report = analyze_source("crates/core/src/a.rs", src);
    assert_eq!(rules_fired(&report), vec!["invalid-pragma"]);
}

// --- nondeterministic-iteration ----------------------------------------

#[test]
fn hash_iteration_fires_in_output_affecting_crates() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<String, u32>) -> Vec<u32> {\n    \
               m.values().copied().collect()\n}";
    let report = analyze_source("crates/lake/src/catalog.rs", src);
    assert_eq!(rules_fired(&report), vec!["nondeterministic-iteration"]);
    // `for` loop form.
    let src = "let mut m = HashMap::new();\nfor (k, v) in &m {\n    emit(k, v);\n}";
    let report = analyze_source("crates/core/src/engine.rs", src);
    assert_eq!(rules_fired(&report), vec!["nondeterministic-iteration"]);
    // The serve crate renders wire replies, so it is output-affecting too.
    let src = "pub fn f(m: &HashMap<String, u32>) -> Vec<u32> {\n    \
               m.values().copied().collect()\n}";
    let report = analyze_source("crates/serve/src/server.rs", src);
    assert_eq!(rules_fired(&report), vec!["nondeterministic-iteration"]);
}

#[test]
fn hash_iteration_with_sort_or_btree_or_elsewhere_is_clean() {
    // Collected then sorted on the next line — the canonical fix.
    let src = "pub fn f(m: &HashMap<String, u32>) -> Vec<u32> {\n    \
               let mut v: Vec<u32> = m.values().copied().collect();\n    v.sort();\n    v\n}";
    assert!(analyze_source("crates/lake/src/a.rs", src).clean());
    // Collected into an ordered container.
    let src = "pub fn f(m: &HashMap<String, u32>) -> BTreeMap<String, u32> {\n    \
               m.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<_, _>>()\n}";
    assert!(analyze_source("crates/lake/src/a.rs", src).clean());
    let src = "pub fn f(m: &HashMap<String, u32>) -> usize { m.values().count() }";
    assert!(analyze_source("crates/lake/src/a.rs", src).clean());
    // Non-output-affecting crate: out of scope.
    let src = "pub fn f(m: &HashMap<String, u32>) -> Vec<u32> { m.values().copied().collect() }";
    assert!(analyze_source("crates/ml/src/a.rs", src).clean());
    // Lookup is not iteration.
    let src = "pub fn f(m: &HashMap<String, u32>) -> Option<u32> { m.get(\"k\").copied() }";
    assert!(analyze_source("crates/core/src/a.rs", src).clean());
    // A HashSet *return type* does not taint a slice parameter.
    let src = "pub fn f(entries: &[u32]) -> HashSet<u32> {\n    \
               entries.iter().copied().collect()\n}";
    assert!(analyze_source("crates/lake/src/a.rs", src).clean());
}

#[test]
fn hash_iteration_pragma_suppresses() {
    let src = "let m = HashMap::new();\n\
               // metam-analyze: allow(nondeterministic-iteration): feeds a commutative reduction\n\
               for v in &m {\n    total += v;\n}";
    let report = analyze_source("crates/profile/src/a.rs", src);
    assert!(report.clean());
    assert_eq!(report.suppressions.len(), 1);
}

// --- timing-outside-guard ----------------------------------------------

#[test]
fn timing_rule_pins_core_to_the_observer_gate() {
    // Unguarded clock read in metam-core: finding.
    let src = "pub fn f() {\n    let t = Instant::now();\n}";
    let report = analyze_source("crates/core/src/engine.rs", src);
    assert_eq!(rules_fired(&report), vec!["timing-outside-guard"]);
    // The sanctioned passivity pattern: clean.
    let src = "let started = observing.then(Instant::now);";
    assert!(analyze_source("crates/core/src/engine.rs", src).clean());
    // Other crates may time freely (spans already gate on enabled()).
    let src = "let t = Instant::now();";
    assert!(analyze_source("crates/obs/src/span.rs", src).clean());
    assert!(analyze_source("src/session/mod.rs", src).clean());
    // Suppressible with a reason.
    let src = "let t = Instant::now(); // metam-analyze: allow(timing-outside-guard): feeds a debug assertion stripped in release";
    assert!(analyze_source("crates/core/src/engine.rs", src).clean());
}

// --- raw-thread-spawn ---------------------------------------------------

#[test]
fn raw_thread_spawn_only_in_sanctioned_module() {
    let src = "let h = std::thread::spawn(move || work());";
    let report = analyze_source("crates/profile/src/profile.rs", src);
    assert_eq!(rules_fired(&report), vec!["raw-thread-spawn"]);
    // The sanctioned worker-pool module is exempt (its path is a crate
    // root, so the fixture needs the forbid attribute too).
    let pool_src = format!("#![forbid(unsafe_code)]\n{src}");
    assert!(analyze_source("crates/pool/src/lib.rs", &pool_src).clean());
    // The daemon's service threads (acceptor, readers, workers) are the
    // other sanctioned site — but only its server module, not the rest of
    // the serve crate.
    assert!(analyze_source("crates/serve/src/server.rs", src).clean());
    let report = analyze_source("crates/serve/src/protocol.rs", src);
    assert_eq!(rules_fired(&report), vec!["raw-thread-spawn"]);
    // The scan catalog lost its exemption when the pool moved out of it.
    let report = analyze_source("crates/lake/src/catalog.rs", src);
    assert_eq!(rules_fired(&report), vec!["raw-thread-spawn"]);
    // Scoped spawns (std's and crossbeam's forms) are not raw spawns.
    for src in [
        "scope.spawn(move || work());",
        "scope.spawn(move |_| work());",
    ] {
        assert!(analyze_source("crates/profile/src/profile.rs", src).clean());
    }
    // Tests may thread.
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()); }\n}";
    assert!(analyze_source("crates/profile/src/profile.rs", src).clean());
    // Suppressible.
    let src = "let h = std::thread::spawn(run); // metam-analyze: allow(raw-thread-spawn): detached watchdog, joined on drop";
    assert!(analyze_source("crates/profile/src/profile.rs", src).clean());
}

// --- unjustified-atomic-ordering ---------------------------------------

#[test]
fn strong_ordering_requires_written_justification() {
    let src = "FLAG.store(true, Ordering::SeqCst);";
    let report = analyze_source("crates/obs/src/sink.rs", src);
    assert_eq!(rules_fired(&report), vec!["unjustified-atomic-ordering"]);
    // Relaxed needs no note.
    let src = "FLAG.store(true, Ordering::Relaxed);";
    assert!(analyze_source("crates/obs/src/sink.rs", src).clean());
    // An adjacent `// ordering:` comment justifies (same line or above).
    let src = "FLAG.store(true, Ordering::Release); // ordering: publishes the buffer write before the flag";
    assert!(analyze_source("crates/obs/src/sink.rs", src).clean());
    let src = "// ordering: pairs with the Acquire load in reader()\nFLAG.store(true, Ordering::Release);";
    assert!(analyze_source("crates/obs/src/sink.rs", src).clean());
    // The pragma works as a last resort.
    let src = "FLAG.store(true, Ordering::SeqCst); // metam-analyze: allow(unjustified-atomic-ordering): matches the shim API it stands in for";
    assert!(analyze_source("crates/obs/src/sink.rs", src).clean());
}

// --- env-read-outside-config -------------------------------------------

#[test]
fn env_reads_are_confined_to_entry_modules() {
    let src = "let v = std::env::var(\"METAM_X\").ok();";
    let report = analyze_source("crates/core/src/engine.rs", src);
    assert_eq!(rules_fired(&report), vec!["env-read-outside-config"]);
    // Entry modules are allowed.
    assert!(analyze_source("crates/lake/src/catalog.rs", src).clean());
    assert!(analyze_source("crates/obs/src/sink.rs", src).clean());
    assert!(analyze_source("src/cli.rs", src).clean());
    assert!(analyze_source("crates/bench/src/ingest.rs", src).clean());
    assert!(analyze_source("src/bin/metam.rs", src).clean());
    // The daemon takes its tuning from `ServeConfig` fields, never the
    // environment.
    for path in ["crates/serve/src/server.rs", "crates/serve/src/registry.rs"] {
        let report = analyze_source(path, src);
        assert_eq!(rules_fired(&report), vec!["env-read-outside-config"]);
    }
    // Tests may read env (temp dirs).
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { let d = std::env::temp_dir(); }\n}";
    assert!(analyze_source("crates/core/src/engine.rs", src).clean());
    // Suppressible.
    let src = "let v = std::env::var(\"HOME\"); // metam-analyze: allow(env-read-outside-config): platform cache dir resolution";
    assert!(analyze_source("crates/core/src/engine.rs", src).clean());
}

// --- missing-forbid-unsafe ---------------------------------------------

#[test]
fn crate_roots_must_forbid_unsafe() {
    let report = analyze_source("crates/core/src/lib.rs", "//! docs\npub mod engine;\n");
    assert_eq!(rules_fired(&report), vec!["missing-forbid-unsafe"]);
    let src = "#![forbid(unsafe_code)]\n//! docs\npub mod engine;\n";
    assert!(analyze_source("crates/core/src/lib.rs", src).clean());
    // Non-root files are not checked.
    assert!(analyze_source("crates/core/src/engine.rs", "pub fn f() {}").clean());
    // The root crate's lib.rs is a crate root too.
    let report = analyze_source("src/lib.rs", "pub mod session;\n");
    assert_eq!(rules_fired(&report), vec!["missing-forbid-unsafe"]);
}

// --- reporting ----------------------------------------------------------

#[test]
fn findings_carry_file_line_and_excerpt() {
    let src = "pub fn f() {\n    let t = x.unwrap();\n}";
    let report = analyze_source("crates/core/src/engine.rs", src);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.file, "crates/core/src/engine.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.excerpt, "let t = x.unwrap();");
    assert!(f.message.contains("typed error"));
}
