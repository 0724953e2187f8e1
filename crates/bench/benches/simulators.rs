//! Throughput benchmarks for the two simulators: systems/second for the
//! FaultSim-style Monte-Carlo (the paper runs 10⁹ systems) and
//! cycles/second for the USIMM-style memory simulator.
//!
//! Runs on the std-only harness in `xed_bench::timing` (no Criterion; the
//! workspace builds offline).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use xed_bench::timing::Group;
use xed_faultsim::engine::Sweep;
use xed_faultsim::event::sample_lifetime;
use xed_faultsim::fit::{FitRates, LIFETIME_YEARS};
use xed_faultsim::geometry::DramGeometry;
use xed_faultsim::schemes::Scheme;
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::sim::{SimConfig, Simulation};
use xed_memsim::workloads::Workload;

fn faultsim_benches() {
    let g = Group::new("faultsim");
    let rates = FitRates::table_i();
    let geom = DramGeometry::x8_2gb();
    let mut rng = StdRng::seed_from_u64(1);
    g.bench("sample_lifetime_72chips", || {
        sample_lifetime(&mut rng, &rates, &geom, black_box(72), LIFETIME_YEARS)
    });

    g.bench("mc_10k_systems_xed", || {
        let sweep = Sweep::new(10_000, 9).with_threads(1);
        sweep.run_one(black_box(Scheme::Xed))
    });
}

fn memsim_benches() {
    let g = Group::new("memsim").slow();
    g.bench("sim_8cores_20k_instr", || {
        Simulation::new(SimConfig {
            workload: Workload::by_name("comm1").unwrap(),
            scheme: ReliabilityScheme::baseline_secded(),
            instructions_per_core: black_box(20_000),
            ..Default::default()
        })
        .run()
    });
}

fn main() {
    faultsim_benches();
    memsim_benches();
}
