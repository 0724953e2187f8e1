//! Protocol stress test: drive the memory controller with adversarial
//! random traffic and verify the DDR state machines never violate their
//! invariants (the `can_*`/`issue_*` contracts carry debug assertions; on
//! top of that we check externally visible properties).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xed::memsim::addrmap::Topology;
use xed::memsim::scheduler::{MemController, SchedConfig};
use xed::memsim::timing::DdrTiming;

fn stress(topology: Topology, timing: DdrTiming, seed: u64, requests: u64) {
    let mut mc = MemController::new(topology, timing, SchedConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 1u64;
    let mut issued_reads = 0u64;
    let mut completed: Vec<u64> = Vec::new();
    let mut now = 0u64;
    let lines = topology.lines();

    while issued_reads < requests || mc.pending() > 0 {
        // Bursty arrivals: sometimes slam many requests at once.
        let arrivals = match rng.gen_range(0..10) {
            0..=5 => 0,
            6..=8 => rng.gen_range(1..4),
            _ => rng.gen_range(4..16),
        };
        for _ in 0..arrivals {
            if issued_reads >= requests {
                break;
            }
            // Adversarial locality: hammer a few rows to force conflicts.
            let addr = if rng.gen_bool(0.5) {
                rng.gen_range(0..lines.min(4096))
            } else {
                rng.gen_range(0..lines)
            };
            let ok = if rng.gen_bool(0.3) {
                mc.enqueue_write(next_id, addr, now)
            } else {
                let ok = mc.enqueue_read(next_id, addr, now);
                if ok {
                    issued_reads += 1;
                }
                ok
            };
            if ok {
                next_id += 1;
            }
        }
        completed.extend_from_slice(mc.tick(now));
        now += 1;
        assert!(
            now < 40_000_000,
            "controller wedged at {} pending",
            mc.pending()
        );
    }

    // Every read completed exactly once.
    assert_eq!(completed.len() as u64, mc.stats.reads_done);
    let mut sorted = completed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), completed.len(), "duplicate completions");

    // Aggregate invariants: column accesses require activates; the data
    // bus can't have carried more cycles than elapsed.
    let mut acts = 0u64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut refreshes = 0u64;
    let mut bus = 0u64;
    for ch in 0..topology.channels {
        bus += mc.dram().channel(ch).data_bus_busy_cycles;
        for r in 0..topology.ranks {
            let s = mc.dram().channel(ch).rank(r).stats;
            acts += s.acts;
            reads += s.reads;
            writes += s.writes;
            refreshes += s.refreshes;
        }
    }
    assert_eq!(reads, mc.stats.reads_done);
    assert_eq!(writes, mc.stats.writes_done);
    assert!(acts >= 1, "some activates must have happened");
    // Open-page: at most one ACT per column access, plus re-activations
    // after refreshes close banks and after row-conflict precharges (the
    // conflict pressure is bounded by the column accesses themselves, so
    // 2x is a hard ceiling).
    let banks_total = (topology.channels * topology.ranks * topology.banks) as u64;
    assert!(
        acts <= 2 * (reads + writes) + refreshes * banks_total,
        "activate storm: {acts} acts for {} accesses, {refreshes} refreshes",
        reads + writes
    );
    assert!(
        bus <= now * topology.channels as u64,
        "data bus over-committed: {bus} busy cycles in {now}"
    );
    // Every read's data took at least CL + BL cycles after enqueue.
    assert!(
        mc.stats.total_read_latency >= mc.stats.reads_done * timing.read_latency(),
        "impossible read latencies"
    );
}

#[test]
fn stress_baseline_topology_ddr3() {
    stress(Topology::baseline(), DdrTiming::ddr3_1600(), 1, 4_000);
}

#[test]
fn stress_single_rank_ddr3() {
    let t = Topology {
        ranks: 1,
        ..Topology::baseline()
    };
    stress(t, DdrTiming::ddr3_1600(), 2, 4_000);
}

#[test]
fn stress_two_channel_ddr3() {
    let t = Topology {
        channels: 2,
        ..Topology::baseline()
    };
    stress(t, DdrTiming::ddr3_1600(), 3, 4_000);
}

#[test]
fn stress_ddr4_timing() {
    stress(Topology::baseline(), DdrTiming::ddr4_2400(), 4, 4_000);
}

#[test]
fn stress_extended_burst() {
    stress(
        Topology::baseline(),
        DdrTiming::ddr3_1600().with_extra_burst(4),
        5,
        3_000,
    );
}

#[test]
fn stress_tiny_topology_heavy_conflicts() {
    // One channel, one rank, two banks, few rows: maximal contention.
    let t = Topology {
        channels: 1,
        ranks: 1,
        banks: 2,
        rows: 8,
        cols: 16,
    };
    stress(t, DdrTiming::ddr3_1600(), 6, 3_000);
}
