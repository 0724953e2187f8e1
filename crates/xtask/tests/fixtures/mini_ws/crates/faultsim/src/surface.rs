//! Fixture for XA104, one case per arm: the public surface no root
//! reaches. This crate is never compiled; only its token stream matters.

/// Seeded XA104 (fn arm): no root reaches it.
pub fn unreached() -> u64 {
    1
}

/// Reached only from the fixture's root test: no finding.
pub fn reached_from_a_root() -> u64 {
    2
}

/// Reached only from the fixture's bin: no finding.
pub fn reached_from_a_bin() -> u64 {
    5
}

/// Seeded XA104 (fn arm): only this file's own tests call it.
pub fn called_by_its_tests_only() -> u64 {
    3
}

pub struct Ring {
    slots: [u64; 4],
}

impl Ring {
    /// Named as a value by the root test (`map(Ring::scaled)`), never
    /// called there: reached, no finding.
    pub fn scaled(v: u64) -> u64 {
        v * 2
    }

    /// Reached only through the trait impl below: no finding.
    pub fn head(&self) -> u64 {
        self.slots[0]
    }
}

impl Iterator for Ring {
    type Item = u64;

    /// A trait-impl method: exempt, and a root of its own, since std
    /// calls it with no call site in the workspace.
    fn next(&mut self) -> Option<u64> {
        Some(self.head())
    }
}

pub struct Tape {
    slots: Vec<u64>,
}

impl Tape {
    /// Seeded XA104 (fn arm): nothing calls it. The live `Vec::new()` of
    /// `lib.rs` resolves to std, so it reaches no workspace `new`.
    pub fn new() -> Tape {
        Tape { slots: Vec::new() }
    }
}

/// Called only from the initializer of `SEEDED`: reached, no finding.
pub const fn seed_limit() -> u64 {
    9
}

/// Named by the root test; its initializer is a root of its own.
pub static SEEDED: u64 = seed_limit();

/// Seeded XA104 (name arm): a `pub` const nothing names.
pub const DEAD_LIMIT: u64 = 7;

/// Named by the root test: live.
pub const LIVE_LIMIT: u64 = 8;

/// Intended surface no root calls yet, kept by a waiver.
// xed-analyze: allow(XA104) — fixture: a waived item is suppressed, not reported
pub fn kept_on_purpose() -> u64 {
    4
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        assert_eq!(super::called_by_its_tests_only(), 3);
    }
}
