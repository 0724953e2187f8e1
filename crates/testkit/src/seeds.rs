//! Named seed constants for every seeded sweep in the workspace.
//!
//! The de-flake audit (part of `cargo xtask verify-matrix` and of the
//! tier-1 suite) asserts that `tests/proptests.rs` and
//! `tests/reliability_consistency.rs` draw their seeds from this module
//! instead of scattering magic numbers: a seed that lives here is
//! documented, greppable, and cannot silently drift between two tests
//! that believe they replay the same stream.
//!
//! Changing any constant changes every derived simulation result — treat
//! them as part of the reproducibility contract, like
//! `Scheme::stream_tag`.

/// Base seed of the property-test sweeps in `tests/proptests.rs`; each
/// test XORs a per-test salt into it.
pub const PROPTEST_BASE: u64 = 0x9E37;

/// Seed of the Monte-Carlo runs in `tests/reliability_consistency.rs`.
pub const RELIABILITY_CONSISTENCY: u64 = 99;

/// Seed of the scaling-fault ordering sweep in
/// `tests/reliability_consistency.rs` (kept distinct so the ordering
/// claim is checked on an independent stream).
pub const SCALING_ORDERING: u64 = 5;

/// Seed of the golden conformance traces (`xed-trace-v1`).
pub const GOLDEN_TRACE: u64 = 2016;

/// Seed of the metamorphic suite's Monte-Carlo runs.
pub const METAMORPHIC: u64 = 0xA11CE;

/// Seed of the analytic-vs-MC gate runs (kept distinct from
/// [`METAMORPHIC`] so the two oracles never share a failure mode through
/// a common stream).
pub const ANALYTIC_GATE: u64 = 0x6A7E;

/// Base seed for the deterministic corruption-pattern searches in
/// [`crate::datapath`] (each search derives per-candidate seeds from it).
pub const DATAPATH_SEARCH: u64 = 0x0DDB;

/// Seed of the BEER-style inference round-trips: random SEC-DED matrix
/// generation in [`crate::infer_gate`] and `tests/infer_roundtrip.rs`
/// (kept distinct so code-inference failures never alias a Monte-Carlo
/// stream).
pub const INFER_ROUNDTRIP: u64 = 0xBEE0;

/// Flags seed literals in test source that bypass the named constants.
///
/// Returns one message per offending line. The audit looks for the two
/// ways a seed enters a sweep — `seed_from_u64(<literal>)` and a
/// `seed: <literal>` struct field — and accepts anything that mentions
/// `seeds::` on the same line. Lines may opt out with a
/// `de-flake: allow` comment (none currently do).
pub fn audit_source(file: &str, text: &str) -> Vec<String> {
    let mut findings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or(line);
        if line.contains("de-flake: allow") || code.contains("seeds::") {
            continue;
        }
        let offends = ["seed_from_u64(", "seed: "].iter().any(|pat| {
            code.find(pat).is_some_and(|at| {
                code[at + pat.len()..]
                    .trim_start()
                    .starts_with(|c: char| c.is_ascii_digit())
            })
        });
        if offends {
            findings.push(format!(
                "{file}:{}: raw seed literal; use a named constant from xed_testkit::seeds",
                i + 1
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_flags_raw_literals_and_accepts_named_constants() {
        let bad = "let mut rng = StdRng::seed_from_u64(42);\nlet c = Config { seed: 7, x: 1 };\n";
        let f = audit_source("t.rs", bad);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].contains("t.rs:1"));
        assert!(f[1].contains("t.rs:2"));

        let good = "let mut rng = StdRng::seed_from_u64(seeds::PROPTEST_BASE ^ salt);\n\
                    let c = Config { seed: seeds::RELIABILITY_CONSISTENCY, x: 1 };\n\
                    let d = reseed(seed); // derives from a named constant\n";
        assert!(audit_source("t.rs", good).is_empty());
    }

    #[test]
    fn audit_honors_comments_and_waivers() {
        // A literal inside a comment is not a seed.
        assert!(audit_source("t.rs", "// e.g. seed_from_u64(5)\n").is_empty());
        assert!(audit_source("t.rs", "seed_from_u64(5) // de-flake: allow\n").is_empty());
    }

    #[test]
    fn the_workspace_test_sweeps_use_named_seeds() {
        // The de-flake audit itself, run against the repo's integration
        // tests. CARGO_MANIFEST_DIR = crates/testkit.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for file in ["tests/proptests.rs", "tests/reliability_consistency.rs"] {
            let path = format!("{root}/{file}");
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let findings = audit_source(file, &text);
            assert!(findings.is_empty(), "{findings:#?}");
        }
    }

    #[test]
    fn named_seeds_are_distinct_where_independence_matters() {
        // The two reliability streams must differ, or the "independent
        // stream" claim in the docs is false.
        assert_ne!(RELIABILITY_CONSISTENCY, SCALING_ORDERING);
        assert_ne!(METAMORPHIC, GOLDEN_TRACE);
    }
}
