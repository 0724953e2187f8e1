//! Integration-level invariants of the cycle-level memory simulator.

use xed::memsim::overlay::ReliabilityScheme;
use xed::memsim::sim::{SimConfig, SimResult, Simulation};
use xed::memsim::workloads::Workload;

fn run(workload: &str, scheme: ReliabilityScheme, instrs: u64) -> SimResult {
    Simulation::new(SimConfig {
        workload: Workload::by_name(workload).unwrap(),
        scheme,
        instructions_per_core: instrs,
        ..Default::default()
    })
    .run()
}

#[test]
fn exec_time_scales_with_instruction_count() {
    let short = run("comm3", ReliabilityScheme::baseline_secded(), 20_000);
    let long = run("comm3", ReliabilityScheme::baseline_secded(), 80_000);
    let ratio = long.cycles as f64 / short.cycles as f64;
    assert!(
        (2.5..6.0).contains(&ratio),
        "4x instructions -> ~4x cycles, got {ratio}"
    );
}

#[test]
fn bus_utilization_is_a_fraction() {
    for name in ["libquantum", "mcf", "dealII"] {
        let r = run(name, ReliabilityScheme::baseline_secded(), 40_000);
        assert!(
            r.bus_utilization > 0.0 && r.bus_utilization <= 1.0,
            "{name}: {}",
            r.bus_utilization
        );
    }
}

#[test]
fn streaming_workload_has_higher_row_hit_rate() {
    let streaming = run("libquantum", ReliabilityScheme::baseline_secded(), 40_000);
    let random = run("mcf", ReliabilityScheme::baseline_secded(), 40_000);
    assert!(
        streaming.row_hit_rate > random.row_hit_rate + 0.2,
        "libquantum {} vs mcf {}",
        streaming.row_hit_rate,
        random.row_hit_rate
    );
}

#[test]
fn memory_bound_workload_slower_than_compute_bound() {
    // Per instruction, mcf (48 MPKI) must take far longer than dealII
    // (2.1 MPKI) on identical hardware.
    let mcf = run("mcf", ReliabilityScheme::baseline_secded(), 40_000);
    let deal = run("dealII", ReliabilityScheme::baseline_secded(), 40_000);
    assert!(
        mcf.cycles > deal.cycles * 3,
        "mcf {} vs dealII {}",
        mcf.cycles,
        deal.cycles
    );
}

#[test]
fn figure11_scheme_ordering() {
    // baseline ≈ XED ≤ XED+CK ≤ CK < DCK on a bandwidth-bound benchmark.
    let base = run("lbm", ReliabilityScheme::baseline_secded(), 40_000);
    let xed = run("lbm", ReliabilityScheme::xed(), 40_000);
    let xed_ck = run("lbm", ReliabilityScheme::xed_chipkill(), 40_000);
    let ck = run("lbm", ReliabilityScheme::chipkill(), 40_000);
    let dck = run("lbm", ReliabilityScheme::double_chipkill(), 40_000);
    let r = |x: &SimResult| x.cycles as f64 / base.cycles as f64;
    assert!(r(&xed) < 1.02, "xed {}", r(&xed));
    assert!(
        r(&xed_ck) >= 1.0 && r(&xed_ck) < r(&ck),
        "xed_ck {} ck {}",
        r(&xed_ck),
        r(&ck)
    );
    assert!(r(&ck) > 1.1, "chipkill {}", r(&ck));
    assert!(r(&dck) > r(&ck), "dck {} ck {}", r(&dck), r(&ck));
}

#[test]
fn overfetch_shows_up_in_bus_utilization() {
    let base = run("libquantum", ReliabilityScheme::baseline_secded(), 40_000);
    let ck = run("libquantum", ReliabilityScheme::chipkill(), 40_000);
    // Chipkill moves twice the data per access; even with fewer channels'
    // worth of parallelism the bus must be busier.
    assert!(
        ck.bus_utilization > base.bus_utilization,
        "{} vs {}",
        ck.bus_utilization,
        base.bus_utilization
    );
}

#[test]
fn power_breakdown_components_positive_and_sum() {
    let r = run("comm1", ReliabilityScheme::xed(), 40_000);
    let p = r.power;
    assert!(p.background_mw > 0.0);
    assert!(p.activate_mw > 0.0);
    assert!(p.rw_mw > 0.0);
    assert!(p.refresh_mw > 0.0);
    let sum = p.background_mw + p.activate_mw + p.rw_mw + p.refresh_mw;
    assert!((sum - p.total_mw()).abs() < 1e-9);
}

#[test]
fn double_chipkill_burns_more_activate_power_than_chipkill_x4() {
    let xed_ck = run("comm1", ReliabilityScheme::xed_chipkill(), 40_000);
    let dck = run("comm1", ReliabilityScheme::double_chipkill(), 40_000);
    // 36 activated chips vs 18: more activate energy per unit work even
    // after the time stretch.
    assert!(
        dck.power.activate_mw * dck.cycles as f64 > xed_ck.power.activate_mw * xed_ck.cycles as f64,
        "activate energy: dck {} vs xed+ck {}",
        dck.power.activate_mw * dck.cycles as f64,
        xed_ck.power.activate_mw * xed_ck.cycles as f64
    );
}

#[test]
fn reads_match_demand_plus_overlay() {
    let base = run("sphinx", ReliabilityScheme::baseline_secded(), 40_000);
    let extra = run(
        "sphinx",
        ReliabilityScheme::chipkill_extra_transaction(),
        40_000,
    );
    // Extra-transaction mode roughly doubles DRAM reads.
    let ratio = extra.reads as f64 / base.reads as f64;
    assert!((1.7..2.3).contains(&ratio), "read amplification {ratio}");
}

#[test]
fn deterministic_across_runs() {
    let a = run("ferret", ReliabilityScheme::xed(), 30_000);
    let b = run("ferret", ReliabilityScheme::xed(), 30_000);
    assert_eq!(a, b);
}

/// FNV-1a 64 of `text`, the fingerprint the benchmark's goldens use.
fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Pins the exact output of a small roster: `cycles` plus a fingerprint
/// of the whole `SimResult` (stats, power, ECC counters). Any change to
/// the scheduler, the DRAM state machines, the front end or the overlays
/// that moves a single simulated cycle or counter fails here.
#[test]
fn small_roster_output_is_pinned() {
    let schemes = [
        ReliabilityScheme::baseline_secded(),
        ReliabilityScheme::chipkill_extra_burst(),
        ReliabilityScheme::double_chipkill_extra_burst(),
        ReliabilityScheme::chipkill_extra_transaction(),
    ];
    let mut got = Vec::new();
    for workload in ["mcf", "lbm", "comm1"] {
        for scheme in schemes {
            let r = Simulation::new(SimConfig {
                workload: Workload::by_name(workload).unwrap(),
                scheme,
                instructions_per_core: 20_000,
                functional_ecc: true,
                ..Default::default()
            })
            .run();
            got.push(format!(
                "{workload}/{}: {}/{:016x}",
                r.scheme_name,
                r.cycles,
                fingerprint(&format!("{r:?}"))
            ));
        }
    }
    // Recorded before the one-pass FR-FCFS scheduler replaced the
    // three-pass one; the two must agree cycle for cycle.
    let expected = [
        "mcf/SECDED (ECC-DIMM, 9 chips): 14798/f22a84f2fbb6fbbb",
        "mcf/Chipkill via extra burst: 16561/2c968b9360e0840b",
        "mcf/Double-Chipkill via extra burst: 18235/9ac93b93544c4282",
        "mcf/Chipkill via extra transaction: 20656/b5f7f88ef0c54f36",
        "lbm/SECDED (ECC-DIMM, 9 chips): 7369/8d0cc5d240e24b63",
        "lbm/Chipkill via extra burst: 8476/8d7edb757ce36769",
        "lbm/Double-Chipkill via extra burst: 9583/4e9c159762d46636",
        "lbm/Chipkill via extra transaction: 10826/b0259adac639e1d9",
        "comm1/SECDED (ECC-DIMM, 9 chips): 6686/e14420588fad3c44",
        "comm1/Chipkill via extra burst: 7200/4895e42bca7e0ee4",
        "comm1/Double-Chipkill via extra burst: 7651/7b7f56c117b548df",
        "comm1/Chipkill via extra transaction: 8213/e65fd413bc129387",
    ];
    assert_eq!(got, expected);
}
