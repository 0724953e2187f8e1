//! Fixture trace phases for the XL012 catalogue rule.

pub enum Phase {
    Request,
    /// Seeded XL012: documented, but missing from `Phase::ALL`.
    Evaluate,
}

impl Phase {
    pub const ALL: [Phase; 1] = [Phase::Request];
}
