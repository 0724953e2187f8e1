//! Count once, publish at the merge point (DESIGN.md §11): each functional
//! system counts only in its public stats struct, and its totals reach the
//! global registry exactly once, when it drops. While a system is alive
//! its `core.*` counters stay 0; after the drop they equal the stats
//! captured just before it, bit for bit. Disabling telemetry across the
//! drop leaves the stats untouched while the registry stays silent.
//!
//! The registry is process-global, so every test serializes through one
//! mutex and resets the catalogue before driving its workload.

use std::sync::{Mutex, MutexGuard, OnceLock};

use xed_core::alert::{AlertDimm, AlertMode};
use xed_core::chip::{ChipGeometry, OnDieCode};
use xed_core::controller::{XedController, XedStats};
use xed_core::fault::{FaultKind, InjectedFault};
use xed_core::secded_dimm::SecdedDimm;
use xed_core::xed_chipkill::XedChipkillSystem;
use xed_core::{XedConfig, XedDimm};
use xed_memsim::eccpath::EccDatapath;
use xed_telemetry::registry;

/// Serializes registry access across the test threads and hands back a
/// freshly reset catalogue.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    xed_telemetry::set_enabled(true);
    registry::reset_all();
    guard
}

fn counter(id: &str) -> u64 {
    xed_telemetry::snapshot()
        .counter(id)
        .unwrap_or_else(|| panic!("metric {id} missing from the registry"))
}

/// Asserts each `(metric id, expected total)` pair against the registry.
fn assert_counters(expected: &[(&str, u64)]) {
    for &(id, want) in expected {
        assert_eq!(counter(id), want, "{id}");
    }
}

/// Asserts every listed counter is still 0.
fn assert_silent(expected: &[(&str, u64)]) {
    for &(id, _) in expected {
        assert_eq!(counter(id), 0, "{id} published before the drop");
    }
}

/// The `core.xed.*` counters an XED controller publishes from `s`.
fn xed_counters(s: XedStats) -> [(&'static str, u64); 9] {
    [
        ("core.xed.reads", s.reads),
        ("core.xed.writes", s.writes),
        ("core.xed.catch_words", s.catch_words_observed),
        ("core.xed.reconstructions", s.reconstructions),
        ("core.xed.serial_modes", s.serial_modes),
        ("core.xed.catchword_collisions", s.collisions),
        (
            "core.xed.diagnosis_runs",
            s.inter_line_runs + s.intra_line_runs,
        ),
        ("core.xed.due", s.due_events),
        ("core.xed.scrub_writes", s.scrub_writes),
    ]
}

/// Drives a XedController through reconstruction, collision, serial-mode
/// and diagnosis episodes.
fn drive_xed(c: &mut XedController, lines: u64) {
    let geometry = c.geometry();
    let data = [11u64, 22, 33, 44, 55, 66, 77, 88];
    for l in 0..lines {
        c.write_line(geometry.addr(l), &data);
    }
    // Pinned corruption patterns: the default ones come from a
    // process-wide counter, so two drives of this workload would
    // otherwise see different faults depending on test order.
    let a = geometry.addr(1);
    c.inject_fault(
        2,
        InjectedFault::word(a, FaultKind::Transient).with_seed(0x3040_0000_51ED),
    );
    let _ = c.read_line(a);
    let _ = c.read_line(a);
    let cw = c.catch_word(4).value();
    let mut line = data;
    line[4] = cw;
    let a = geometry.addr(2);
    c.write_line(a, &line);
    let _ = c.read_line(a);
    c.write_line(a, &data);
    let row_addr = geometry.addr(lines / 2);
    c.inject_fault(
        5,
        InjectedFault::row(row_addr.bank, row_addr.row, FaultKind::Permanent)
            .with_seed(0x4019_9E37_CBA6),
    );
    for l in 0..lines {
        let _ = c.read_line(geometry.addr(l));
    }
}

#[test]
fn xed_controller_matches_registry() {
    let _guard = registry_lock();
    let mut c = XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 2016, 8, 10);
    drive_xed(&mut c, 64);
    let s = c.stats();
    assert!(
        s.reconstructions > 0 && s.collisions > 0,
        "workload too tame"
    );
    let expected = xed_counters(s);
    assert_silent(&expected);
    drop(c);
    assert_counters(&expected);
}

#[test]
fn xed_dimm_publishes_once() {
    let _guard = registry_lock();
    let mut dimm = XedDimm::new(XedConfig {
        seed: 2016,
        ..XedConfig::default()
    });
    drive_xed(dimm.controller_mut(), 64);
    let s = dimm.stats();
    assert!(s.reads > 0 && s.reconstructions > 0, "workload too tame");
    let expected = xed_counters(s);
    assert_silent(&expected);
    // The facade owns its controller: one drop, one publish — not two.
    drop(dimm);
    assert_counters(&expected);
}

#[test]
fn secded_dimm_matches_registry() {
    let _guard = registry_lock();
    let mut dimm = SecdedDimm::new(ChipGeometry::small());
    let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for l in 0..48 {
        dimm.write_line(l, &data);
    }
    dimm.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
    for l in 0..48 {
        let _ = dimm.read_line(l);
    }
    let s = dimm.stats();
    assert!(s.corrections + s.due_events > 0, "fault never surfaced");
    let expected = [
        ("core.secded.reads", s.reads),
        ("core.secded.corrections", s.corrections),
        ("core.secded.due", s.due_events),
    ];
    assert_silent(&expected);
    drop(dimm);
    assert_counters(&expected);
}

#[test]
fn chipkill_system_matches_registry() {
    let _guard = registry_lock();
    let mut sys = XedChipkillSystem::new(2016);
    let data = [0xAB00_0001u32; 16];
    for l in 0..32 {
        sys.write_line(l, &data);
    }
    sys.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
    sys.inject_fault(11, InjectedFault::chip(FaultKind::Permanent));
    for l in 0..32 {
        let _ = sys.read_line(l);
    }
    let s = sys.stats();
    assert!(s.reconstructions > 0, "no erasure decodes happened");
    let expected = xed_counters(s);
    assert_silent(&expected);
    assert_silent(&[("ecc.rs.erasures", 0), ("ecc.rs.corrections", 0)]);
    drop(sys);
    assert_counters(&expected);
    // Two dead chips ⇒ every decoded plane repairs two erasure symbols
    // (32 reads × 4 byte planes × 2 chips), and nothing is corrected blind.
    assert_counters(&[("ecc.rs.erasures", 32 * 4 * 2), ("ecc.rs.corrections", 0)]);
}

#[test]
fn alert_dimm_matches_registry() {
    let _guard = registry_lock();
    for mode in [AlertMode::Anonymous, AlertMode::Identified] {
        registry::reset_all();
        let mut dimm = AlertDimm::new(ChipGeometry::small(), OnDieCode::Crc8Atm, mode);
        let data = [9u64, 8, 7, 6, 5, 4, 3, 2];
        for l in 0..32 {
            dimm.write_line(l, &data);
        }
        dimm.inject_fault(2, InjectedFault::chip(FaultKind::Permanent));
        for l in 0..32 {
            let _ = dimm.read_line(l);
        }
        let s = dimm.stats();
        assert!(s.alerts > 0, "{mode:?}: fault never alerted");
        let expected = [
            ("core.alert.reads", s.reads),
            ("core.alert.alerts", s.alerts),
            ("core.alert.reconstructions", s.reconstructions),
            ("core.alert.diagnoses", s.diagnoses),
            ("core.alert.due", s.due_events),
        ];
        assert_silent(&expected);
        drop(dimm);
        assert_counters(&expected);
    }
}

#[test]
fn eccpath_publish_matches_stats() {
    let _guard = registry_lock();
    let mut path = EccDatapath::new();
    for addr in 0..20_000u64 {
        let _ = path.read_line(addr);
    }
    let s = path.stats();
    assert_eq!(s.lines_decoded, 20_000);
    assert!(s.beats_corrected > 0, "error injection never fired");
    // Nothing reaches the registry until the merge-point publish.
    assert_eq!(counter("memsim.eccpath.lines_decoded"), 0);
    path.publish();
    assert_eq!(counter("memsim.eccpath.lines_decoded"), s.lines_decoded);
    assert_eq!(counter("memsim.eccpath.beats_corrected"), s.beats_corrected);
    assert_eq!(counter("memsim.eccpath.due_lines"), s.due_lines);
    assert_eq!(counter("ecc.lines_decoded"), s.lines_decoded);
    assert_eq!(counter("ecc.corrections"), s.beats_corrected);
    assert_eq!(counter("ecc.due_words"), s.due_lines);
    // Publishing twice accumulates — merge points must run exactly once.
    path.publish();
    assert_eq!(counter("ecc.lines_decoded"), 2 * s.lines_decoded);
}

#[test]
fn disabling_telemetry_keeps_legacy_stats_and_silences_registry() {
    let _guard = registry_lock();
    xed_telemetry::set_enabled(false);
    let mut c = XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 2016, 8, 10);
    drive_xed(&mut c, 64);
    let disabled_stats = c.stats();
    // Telemetry stays off across the drop: the gated publish is silent.
    drop(c);
    assert_silent(&xed_counters(disabled_stats));
    xed_telemetry::set_enabled(true);

    // The same workload with telemetry on yields the same legacy stats:
    // instrumentation is observation, never behavior.
    let mut c2 = XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 2016, 8, 10);
    drive_xed(&mut c2, 64);
    assert_eq!(c2.stats(), disabled_stats);
    drop(c2);
    assert_counters(&xed_counters(disabled_stats));
}

#[test]
// issue: non-gating by design (DESIGN.md §11.3). Timing on a shared box
// is noise, so scripts/ci.sh runs this in release and only warns.
#[ignore = "timing report: run in release with --ignored"]
fn telemetry_overhead_stays_within_budget() {
    // The counters publish at merge points, so the Monte-Carlo headline
    // (EccDimm, seed 2016, one thread) with telemetry on must stay within
    // 3 % of the same run with it off. After one warm-up run, the trial
    // count doubles until a run lasts twice the 50 ms floor, so a reading
    // stays above the floor even if the host slows it down; the reported
    // overhead is the median of 9 interleaved on/off pairs, each pair in
    // alternating order.
    use xed_faultsim::engine::Sweep;
    use xed_faultsim::schemes::Scheme;
    const BUDGET_PCT: f64 = 3.0;
    const PAIRS: usize = 9;
    const MIN_RUN_SECONDS: f64 = 0.05;
    let _guard = registry_lock();
    let mut sweep = Sweep::new(1 << 20, 2016).with_threads(1);
    sweep.run_one(Scheme::EccDimm);
    while sweep.run_one(Scheme::EccDimm).stats.wall_seconds < 2.0 * MIN_RUN_SECONDS {
        sweep.samples *= 2;
    }
    let mut shortest = f64::INFINITY;
    let mut rate = |enabled: bool| {
        xed_telemetry::set_enabled(enabled);
        let stats = sweep.run_one(Scheme::EccDimm).stats;
        shortest = shortest.min(stats.wall_seconds);
        stats.samples_per_sec
    };
    let mut pcts: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (on, off) = if i % 2 == 0 {
                let on = rate(true);
                (on, rate(false))
            } else {
                let off = rate(false);
                (rate(true), off)
            };
            (off - on) * 100.0 / off
        })
        .collect();
    xed_telemetry::set_enabled(true);
    pcts.sort_by(f64::total_cmp);
    let pct = pcts[PAIRS / 2];
    println!(
        "telemetry overhead: median {pct:.1}% over {PAIRS} pairs of {} trials \
         (range {:.1}% to {:.1}%, shortest reading {:.0} ms)",
        sweep.samples,
        pcts[0],
        pcts[PAIRS - 1],
        shortest * 1e3
    );
    assert!(
        pct <= BUDGET_PCT,
        "telemetry overhead above the {BUDGET_PCT}% budget: {pct:.1}%"
    );
}
