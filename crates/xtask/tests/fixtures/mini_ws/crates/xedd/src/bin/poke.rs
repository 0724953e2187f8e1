//! Fixture bin: code every rule reads, and a root of XA104. Never
//! compiled; only its token stream matters.

use std::sync::atomic::{AtomicU64, Ordering};

static POKES: AtomicU64 = AtomicU64::new(0);

fn main() {
    POKES.fetch_add(1, Ordering::SeqCst); // seed XA102 (stray SeqCst in a bin)
    println!("{}", xed_faultsim::surface::reached_from_a_bin());
}
