//! The top-level simulation driver: cores + controller + power accounting.

use crate::addrmap::Topology;
use crate::cpu::Core;
use crate::dram::RankStats;
use crate::eccpath::{EccDatapath, EccPathStats};
use crate::overlay::ReliabilityScheme;
use crate::power::{memory_power, ChipPower, PowerBreakdown, PowerInputs};
use crate::scheduler::{MemController, SchedConfig};
use crate::timing::{DdrTiming, CORE_CLOCK_RATIO};
use crate::trace::{Source, TraceGen};
use crate::tracefile::FileTrace;
use crate::workloads::Workload;
use std::collections::{HashMap, VecDeque};

/// Simulation configuration (defaults follow the paper's Table V).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Benchmark profile (all cores run it in rate mode, Section X).
    pub workload: Workload,
    /// Reliability scheme overlay.
    pub scheme: ReliabilityScheme,
    /// Number of cores (Table V: 8).
    pub cores: u32,
    /// Instructions each core retires before the run ends.
    pub instructions_per_core: u64,
    /// Reorder-buffer entries per core (Table V: 160).
    pub rob_size: u64,
    /// RNG seed for trace generation.
    pub seed: u64,
    /// Scheduler queue configuration.
    pub sched: SchedConfig,
    /// Safety limit on simulated memory cycles.
    pub max_cycles: u64,
    /// Replay this captured trace on every core (rate mode, staggered
    /// start offsets) instead of the synthetic `workload` generator.
    pub file_trace: Option<FileTrace>,
    /// Run every completed demand read through the functional (72,64)
    /// CRC8-ATM line decoder ([`crate::eccpath`]). Off by default: it does
    /// not affect timing, only the `ecc` counters of [`SimResult`].
    pub functional_ecc: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            workload: crate::workloads::ALL[0],
            scheme: ReliabilityScheme::baseline_secded(),
            cores: 8,
            instructions_per_core: 1_000_000,
            rob_size: 160,
            seed: 0xD1_5EED,
            sched: SchedConfig::default(),
            max_cycles: 2_000_000_000,
            file_trace: None,
            functional_ecc: false,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Scheme evaluated.
    pub scheme_name: &'static str,
    /// Benchmark evaluated.
    pub workload_name: &'static str,
    /// Memory cycles until the last core finished (execution time).
    pub cycles: u64,
    /// Mean per-core finish time in memory cycles.
    pub avg_core_cycles: f64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Demand reads completed.
    pub reads: u64,
    /// Writes drained to DRAM.
    pub writes: u64,
    /// ACT commands issued.
    pub acts: u64,
    /// Mean demand-read latency (memory cycles).
    pub avg_read_latency: f64,
    /// Fraction of column accesses served without a new activate.
    pub row_hit_rate: f64,
    /// Data-bus utilization (busy cycles / total cycles / channels).
    pub bus_utilization: f64,
    /// Total core cycles fully stalled with the ROB blocked on memory.
    pub rob_stall_cycles: u64,
    /// Total core cycles blocked on full controller queues.
    pub queue_stall_cycles: u64,
    /// Power breakdown.
    pub power: PowerBreakdown,
    /// Functional ECC decode-path counters (all zero unless
    /// [`SimConfig::functional_ecc`] is set).
    pub ecc: EccPathStats,
}

impl SimResult {
    /// Execution time in nanoseconds (800 MHz bus).
    pub fn exec_time_ns(&self) -> f64 {
        self.cycles as f64 * 1.25
    }

    /// Total memory power in milliwatts.
    pub fn power_mw(&self) -> f64 {
        self.power.total_mw()
    }
}

/// A configured simulation, ready to run.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates the simulation.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.cores > 0 && config.instructions_per_core > 0);
        Self { config }
    }

    /// Runs to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `max_cycles` (a wedged configuration), or
    /// if `sched` is invalid (see [`MemController::new`]).
    pub fn run(self) -> SimResult {
        let cfg = self.config;
        let scheme = cfg.scheme;
        let timing = DdrTiming::ddr3_1600().with_extra_burst(scheme.total_extra_burst_cycles());
        let topology: Topology = scheme.topology();
        let mut controller = MemController::new(topology, timing, cfg.sched);

        let mut cores: Vec<Core> = (0..cfg.cores)
            .map(|id| {
                let source = match &cfg.file_trace {
                    Some(trace) => {
                        // Stagger the replay start so cores don't march in
                        // lockstep over identical addresses.
                        let mut t = trace.clone();
                        let skip = trace.len() as u64 * id as u64 / cfg.cores as u64;
                        for _ in 0..skip {
                            t.next_op();
                        }
                        Source::File(t)
                    }
                    None => Source::Synthetic(TraceGen::new(
                        cfg.workload,
                        topology,
                        id,
                        cfg.cores,
                        cfg.seed,
                    )),
                };
                Core::new(
                    source,
                    cfg.rob_size,
                    4 * CORE_CLOCK_RATIO,
                    cfg.instructions_per_core,
                )
            })
            .collect();

        // Request-id bookkeeping: demand reads map back to
        // (core, instr, line address).
        let mut next_id: u64 = 1;
        let mut read_owner: HashMap<u64, (usize, u64, u64)> = HashMap::new();
        let mut eccpath = cfg.functional_ecc.then(EccDatapath::new);
        // Overlay-injected traffic waiting for queue space.
        let mut extra_reads: VecDeque<u64> = VecDeque::new();
        let mut extra_writes: VecDeque<u64> = VecDeque::new();
        let mut read_accum = 0.0f64;
        let mut write_accum = 0.0f64;
        let mut reads_seen: u64 = 0;

        let mut now: u64 = 0;
        loop {
            // Completions → cores (after the optional functional decode).
            for &id in controller.tick(now) {
                if let Some((core, instr, line_addr)) = read_owner.remove(&id) {
                    if let Some(path) = eccpath.as_mut() {
                        let _ = path.read_line(line_addr);
                    }
                    cores[core].complete_read(instr);
                }
            }

            // Retry overlay traffic first (bounded backlog).
            while let Some(&addr) = extra_reads.front() {
                let id = next_id;
                if controller.enqueue_read(id, addr, now) {
                    next_id += 1;
                    extra_reads.pop_front();
                } else {
                    break;
                }
            }
            while let Some(&addr) = extra_writes.front() {
                let id = next_id;
                if controller.enqueue_write(id, addr, now) {
                    next_id += 1;
                    extra_writes.pop_front();
                } else {
                    break;
                }
            }

            // Cores issue demand traffic.
            for (ci, core) in cores.iter_mut().enumerate() {
                core.tick(now, |req| {
                    let id = next_id;
                    let ok = if req.is_write {
                        controller.enqueue_write(id, req.line_addr, now)
                    } else {
                        controller.enqueue_read(id, req.line_addr, now)
                    };
                    if !ok {
                        return false;
                    }
                    next_id += 1;
                    if req.is_write {
                        write_accum += scheme.extra_writes_per_write;
                        while write_accum >= 1.0 {
                            write_accum -= 1.0;
                            extra_writes.push_back(req.line_addr);
                        }
                    } else {
                        read_owner.insert(id, (ci, req.instr_no, req.line_addr));
                        reads_seen += 1;
                        read_accum += scheme.extra_reads_per_read;
                        while read_accum >= 1.0 {
                            read_accum -= 1.0;
                            extra_reads.push_back(req.line_addr);
                        }
                        if let Some(every) = scheme.serial_mode_every {
                            if reads_seen.is_multiple_of(every) {
                                // Serial-mode episode: re-read with XED off
                                // plus a scrub write (paper Section VII-B).
                                extra_reads.push_back(req.line_addr);
                                extra_writes.push_back(req.line_addr);
                            }
                        }
                    }
                    true
                });
            }

            if cores.iter().all(|c| c.finished()) {
                break;
            }
            now += 1;
            assert!(
                now < cfg.max_cycles,
                "simulation exceeded {} cycles",
                cfg.max_cycles
            );
        }

        // invariant: the loop above exits only once every core reports
        // finished(), so finished_at() is Some for each core here.
        let cycles = cores
            .iter()
            .filter_map(|c| c.finished_at())
            .max()
            .unwrap_or(1)
            .max(1);
        let rob_stall_cycles = cores.iter().map(|c| c.stalls.rob_full_cycles).sum();
        let queue_stall_cycles = cores.iter().map(|c| c.stalls.queue_full_cycles).sum();
        let avg_core_cycles =
            cores.iter().filter_map(|c| c.finished_at()).sum::<u64>() as f64 / cores.len() as f64;

        // Aggregate DRAM activity.
        let mut totals = RankStats::default();
        let mut bus_busy = 0u64;
        for ch in 0..topology.channels {
            bus_busy += controller.dram().channel(ch).data_bus_busy_cycles;
            for r in 0..topology.ranks {
                let s = controller.dram().channel(ch).rank(r).stats;
                totals.acts += s.acts;
                totals.reads += s.reads;
                totals.writes += s.writes;
                totals.refreshes += s.refreshes;
                totals.active_cycles += s.active_cycles;
            }
        }
        // Normalize active_cycles to a single-rank-equivalent fraction.
        totals.active_cycles /= (topology.channels * topology.ranks).max(1) as u64;

        let chip = if scheme.x4_devices {
            ChipPower::x4_2gb().with_on_die_ecc()
        } else {
            ChipPower::x8_2gb().with_on_die_ecc()
        };
        let power = memory_power(
            &chip,
            &PowerInputs {
                totals,
                cycles,
                cycle_ns: 1.25,
                chips_per_access: scheme.chips_per_access(),
                total_chips: scheme.total_chips(),
                burst_factor: scheme.burst_factor(),
            },
        );

        // Publish-at-merge (DESIGN.md §11): the run accumulated into the
        // controller's and datapath's owned stats; the global registry is
        // bumped once per simulation, here.
        {
            use xed_telemetry::registry::metrics;
            xed_telemetry::count(
                &metrics::MEMSIM_SCHED_READS_DONE,
                controller.stats.reads_done,
            );
            xed_telemetry::count(
                &metrics::MEMSIM_SCHED_WRITES_DONE,
                controller.stats.writes_done,
            );
        }
        if let Some(path) = eccpath.as_ref() {
            path.publish();
        }

        let col_accesses = totals.reads + totals.writes;
        SimResult {
            scheme_name: scheme.name,
            workload_name: cfg.workload.name,
            cycles,
            avg_core_cycles,
            instructions: cfg.cores as u64 * cfg.instructions_per_core,
            reads: controller.stats.reads_done,
            writes: controller.stats.writes_done,
            acts: totals.acts,
            avg_read_latency: if controller.stats.reads_done > 0 {
                controller.stats.total_read_latency as f64 / controller.stats.reads_done as f64
            } else {
                0.0
            },
            row_hit_rate: if col_accesses > 0 {
                1.0 - (totals.acts.min(col_accesses) as f64 / col_accesses as f64)
            } else {
                0.0
            },
            bus_utilization: bus_busy as f64 / (cycles as f64 * topology.channels as f64),
            rob_stall_cycles,
            queue_stall_cycles,
            power,
            ecc: eccpath.map(|p| p.stats()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, scheme: ReliabilityScheme, instrs: u64) -> SimResult {
        Simulation::new(SimConfig {
            workload: Workload::by_name(workload).unwrap(),
            scheme,
            instructions_per_core: instrs,
            ..SimConfig::default()
        })
        .run()
    }

    #[test]
    fn baseline_run_completes() {
        let r = quick("comm1", ReliabilityScheme::baseline_secded(), 50_000);
        assert!(r.cycles > 0);
        assert!(r.reads > 0);
        assert!(r.writes > 0);
        assert!(r.power_mw() > 0.0);
        assert!(r.avg_read_latency >= DdrTiming::ddr3_1600().read_latency() as f64);
        assert!(r.row_hit_rate > 0.0 && r.row_hit_rate < 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick("gcc", ReliabilityScheme::baseline_secded(), 20_000);
        let b = quick("gcc", ReliabilityScheme::baseline_secded(), 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn chipkill_slower_than_baseline_on_bandwidth_bound() {
        let base = quick("libquantum", ReliabilityScheme::baseline_secded(), 60_000);
        let ck = quick("libquantum", ReliabilityScheme::chipkill(), 60_000);
        assert!(
            ck.cycles > base.cycles,
            "chipkill {} vs baseline {}",
            ck.cycles,
            base.cycles
        );
    }

    #[test]
    fn double_chipkill_slowest() {
        let ck = quick("comm1", ReliabilityScheme::chipkill(), 40_000);
        let dck = quick("comm1", ReliabilityScheme::double_chipkill(), 40_000);
        assert!(
            dck.cycles > ck.cycles,
            "dck {} vs ck {}",
            dck.cycles,
            ck.cycles
        );
    }

    #[test]
    fn xed_close_to_baseline() {
        let base = quick("milc", ReliabilityScheme::baseline_secded(), 40_000);
        let xed = quick("milc", ReliabilityScheme::xed(), 40_000);
        let ratio = xed.cycles as f64 / base.cycles as f64;
        assert!(ratio < 1.02, "xed overhead ratio {ratio}");
    }

    #[test]
    fn extra_transaction_increases_traffic() {
        let base = quick("sphinx", ReliabilityScheme::baseline_secded(), 30_000);
        let alt = quick(
            "sphinx",
            ReliabilityScheme::chipkill_extra_transaction(),
            30_000,
        );
        assert!(alt.reads > base.reads, "{} vs {}", alt.reads, base.reads);
        assert!(alt.cycles >= base.cycles);
    }

    #[test]
    fn lot_ecc_adds_writes() {
        let base = quick("comm2", ReliabilityScheme::baseline_secded(), 30_000);
        let lot = quick("comm2", ReliabilityScheme::lot_ecc(), 30_000);
        assert!(lot.writes > base.writes);
        assert!(lot.cycles >= base.cycles);
    }

    #[test]
    fn functional_ecc_decodes_every_demand_read() {
        let run = || {
            Simulation::new(SimConfig {
                workload: Workload::by_name("comm1").unwrap(),
                instructions_per_core: 30_000,
                functional_ecc: true,
                ..SimConfig::default()
            })
            .run()
        };
        let r = run();
        assert!(r.ecc.lines_decoded > 0);
        // Every *processed* demand-read completion is decoded; reads still
        // in flight when the last core retires never reach the datapath.
        assert!(r.ecc.lines_decoded <= r.reads);
        assert!(r.reads - r.ecc.lines_decoded < 16);
        // Deterministic, including the injected-error counters.
        assert_eq!(r, run());
        // Off by default: the counters stay zero.
        let base = quick("comm1", ReliabilityScheme::baseline_secded(), 30_000);
        assert_eq!(base.ecc, crate::eccpath::EccPathStats::default());
    }

    #[test]
    fn file_trace_drives_the_simulation() {
        let trace: crate::tracefile::FileTrace = "\
5 R 0x0000\n5 R 0x0040\n5 W 0x0080\n9 R 0x10000\n3 R 0x10040\n"
            .parse()
            .unwrap();
        let r = Simulation::new(SimConfig {
            scheme: ReliabilityScheme::baseline_secded(),
            instructions_per_core: 5_000,
            file_trace: Some(trace),
            ..SimConfig::default()
        })
        .run();
        assert!(r.reads > 0);
        assert!(r.writes > 0);
        assert!(r.cycles > 0);
    }
}
