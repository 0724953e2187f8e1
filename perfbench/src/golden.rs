//! Recorded outputs of the program for the benchmark's fixed input pools.
//!
//! Each workload draws its units from a fixed pool of inputs (the
//! `--seed` argument picks which pool entries run, and in which order),
//! so every unit's output can be checked exactly against the golden
//! recorded for that entry. `perfbench --record-goldens` regenerates
//! `goldens.txt`; a golden that changes means the program's results
//! changed, which the reproduction's determinism contract forbids.

use crate::util::Checks;
use std::collections::BTreeMap;

const GOLDENS: &str = include_str!("../goldens.txt");

#[derive(Debug)]
pub struct Goldens {
    map: BTreeMap<String, String>,
    /// `Some` while recording: every expectation is stored, not checked.
    recorded: Option<Vec<(String, String)>>,
}

impl Goldens {
    /// The committed goldens; with `perturb`, every value is deliberately
    /// wrong (the self-test's proof that a bad golden fails the run).
    pub fn load(perturb: bool) -> Self {
        let map = GOLDENS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| {
                let v = if perturb {
                    format!("{v}~perturbed")
                } else {
                    v.to_string()
                };
                (k.to_string(), v)
            })
            .collect();
        Goldens {
            map,
            recorded: None,
        }
    }

    pub fn recording() -> Self {
        Goldens {
            map: BTreeMap::new(),
            recorded: Some(Vec::new()),
        }
    }

    /// Checks `actual` against the golden for `key` (or records it).
    pub fn expect(&mut self, checks: &mut Checks, key: String, actual: String) {
        if let Some(rec) = self.recorded.as_mut() {
            rec.push((key, actual));
            return;
        }
        let golden = self.map.get(&key);
        checks.check(golden == Some(&actual), || {
            format!("golden {key}: expected {golden:?}, got {actual}")
        });
    }

    /// The recorded goldens as `goldens.txt` lines.
    pub fn dump(&self) -> String {
        let mut out = String::from(
            "# Goldens for the perfbench input pools: `<key> <value>` per line.\n\
             # Regenerate with `perfbench --record-goldens` (see BENCHMARK.md).\n",
        );
        for (k, v) in self.recorded.iter().flatten() {
            out.push_str(k);
            out.push(' ');
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// FNV-1a over a string: a compact, exact fingerprint of a `Debug`
/// rendering (`{:?}` prints floats shortest-roundtrip, so equal
/// fingerprints mean bit-equal fields).
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}
