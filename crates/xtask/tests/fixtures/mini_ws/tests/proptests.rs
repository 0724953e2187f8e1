//! A seeded test sweep: XL013 holds its seeds to the named constants.
//! Never compiled; only its token stream matters.

#[test]
fn sweeps_draw_named_seeds() {
    let named = Sweep { seed: seeds::PROPTEST_BASE };
    // A seed in a comment is no seed: seed_from_u64(3).
    let raw = Sweep { seed: 7 }; // seed XL013 (raw seed literal)
}
