//! The three-pass FR-FCFS controller the one-pass scheduler replaced,
//! kept as a test oracle, and the lockstep tests that hold the two to
//! the same completions, statistics and DRAM activity cycle by cycle.
//!
//! The reference ticks every channel every cycle, makes up to three
//! passes over a queue (row hits, then activates, then precharges)
//! through the `can_*` predicates, and finds open banks by scanning.

use super::{MemController, Request, SchedConfig, SchedStats};
use crate::addrmap::{decode, Topology};
use crate::dram::Dram;
use crate::timing::DdrTiming;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Reference {
    topology: Topology,
    dram: Dram,
    read_q: Vec<Vec<Request>>,
    write_q: Vec<Vec<Request>>,
    drain_remaining: Vec<u32>,
    read_grace: Vec<u32>,
    config: SchedConfig,
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    stats: SchedStats,
}

impl Reference {
    fn new(topology: Topology, timing: DdrTiming, config: SchedConfig) -> Self {
        let channels = topology.channels as usize;
        Self {
            topology,
            dram: Dram::new(timing, topology.channels, topology.ranks, topology.banks),
            read_q: vec![Vec::new(); channels],
            write_q: vec![Vec::new(); channels],
            drain_remaining: vec![0; channels],
            read_grace: vec![0; channels],
            config,
            completions: BinaryHeap::new(),
            stats: SchedStats::default(),
        }
    }

    fn enqueue(&mut self, id: u64, line_addr: u64, is_write: bool, now: u64) -> bool {
        let loc = decode(&self.topology, line_addr);
        let (q, cap) = if is_write {
            (
                &mut self.write_q[loc.channel as usize],
                self.config.write_queue_cap,
            )
        } else {
            (
                &mut self.read_q[loc.channel as usize],
                self.config.read_queue_cap,
            )
        };
        if q.len() >= cap {
            return false;
        }
        q.push(Request {
            id,
            loc,
            is_write,
            arrival: now,
        });
        true
    }

    fn any_bank_open(&self, ch: u32, rank: u32) -> bool {
        let r = self.dram.channel(ch).rank(rank);
        (0..self.topology.banks).any(|b| r.bank(b).open_row.is_some())
    }

    fn tick(&mut self, now: u64) -> Vec<u64> {
        for ch in 0..self.topology.channels {
            self.tick_channel(ch, now);
        }
        self.dram.tick_stats_scanning();
        let mut done = Vec::new();
        while let Some(&Reverse((cycle, id))) = self.completions.peek() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            done.push(id);
        }
        done
    }

    fn tick_channel(&mut self, ch: u32, now: u64) {
        for rank in 0..self.topology.ranks {
            if self.dram.refresh_due(ch, rank, now) && !self.dram.refreshing(ch, rank, now) {
                if self.any_bank_open(ch, rank) {
                    for bank in 0..self.topology.banks {
                        if self
                            .dram
                            .channel(ch)
                            .rank(rank)
                            .bank(bank)
                            .open_row
                            .is_some()
                            && self.dram.can_precharge(ch, rank, bank, now)
                        {
                            self.dram.issue_precharge(ch, rank, bank, now);
                            return;
                        }
                    }
                    return;
                }
                self.dram.issue_refresh(ch, rank, now);
                return;
            }
        }

        let ci = ch as usize;
        let wq_len = self.write_q[ci].len();
        let rq_empty = self.read_q[ci].is_empty();
        if self.drain_remaining[ci] == 0
            && wq_len >= self.config.write_drain_hi
            && (self.read_grace[ci] == 0 || rq_empty)
        {
            self.drain_remaining[ci] = (wq_len - self.config.write_drain_lo) as u32;
        }
        let write_mode = wq_len > 0 && (self.drain_remaining[ci] > 0 || rq_empty);

        if write_mode {
            let issued_column = self.schedule_queue(ch, now, true);
            if issued_column && self.drain_remaining[ci] > 0 {
                self.drain_remaining[ci] -= 1;
                if self.drain_remaining[ci] == 0 {
                    self.read_grace[ci] =
                        (self.config.write_drain_hi - self.config.write_drain_lo) as u32;
                }
            }
        } else if !rq_empty {
            if self.schedule_queue(ch, now, false) {
                self.read_grace[ci] = self.read_grace[ci].saturating_sub(1);
            }
        } else {
            self.read_grace[ci] = 0;
        }
    }

    fn schedule_queue(&mut self, ch: u32, now: u64, writes: bool) -> bool {
        let queue = if writes {
            &self.write_q[ch as usize]
        } else {
            &self.read_q[ch as usize]
        };

        // Pass 1: column access for an open matching row (row hit).
        let hit_idx = queue.iter().position(|req| {
            let l = req.loc;
            if writes {
                self.dram.can_write(ch, l.rank, l.bank, l.row, now)
            } else {
                self.dram.can_read(ch, l.rank, l.bank, l.row, now)
            }
        });
        if let Some(i) = hit_idx {
            let req = if writes {
                self.write_q[ch as usize].remove(i)
            } else {
                self.read_q[ch as usize].remove(i)
            };
            let l = req.loc;
            if writes {
                self.dram.issue_write(ch, l.rank, l.bank, l.row, now);
                self.stats.writes_done += 1;
            } else {
                let data_end = self.dram.issue_read(ch, l.rank, l.bank, l.row, now);
                self.stats.reads_done += 1;
                self.stats.total_read_latency += data_end - req.arrival;
                self.completions.push(Reverse((data_end, req.id)));
            }
            return true;
        }

        // Pass 2: activate for the oldest request whose bank is closed.
        for req in queue {
            let l = req.loc;
            let bank_open = self.dram.channel(ch).rank(l.rank).bank(l.bank).open_row;
            if bank_open.is_none() && self.dram.can_activate(ch, l.rank, l.bank, now) {
                self.dram.issue_activate(ch, l.rank, l.bank, l.row, now);
                return false;
            }
        }

        // Pass 3: precharge a conflicting row for the oldest request.
        for req in queue {
            let l = req.loc;
            let bank_open = self.dram.channel(ch).rank(l.rank).bank(l.bank).open_row;
            if let Some(open) = bank_open {
                if open != l.row && self.dram.can_precharge(ch, l.rank, l.bank, now) {
                    self.dram.issue_precharge(ch, l.rank, l.bank, now);
                    return false;
                }
            }
        }
        false
    }
}

/// Drives both controllers with the same seeded adversarial traffic for
/// five refresh intervals and asserts they agree at every step.
///
/// The traffic is the protocol stress test's (bursty arrivals, half the
/// addresses in a hot 4096-line window, 30% writes), in repeating phases
/// of 3000 cycles: open traffic, near silence (so channels sleep across
/// refreshes and wake on enqueue), then hot-window-only traffic (row
/// hits, full queues and write drains).
fn lockstep(topology: Topology, timing: DdrTiming, config: SchedConfig, seed: u64) {
    let mut new = MemController::new(topology, timing, config);
    let mut old = Reference::new(topology, timing, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let lines = topology.lines();
    let hot = lines.min(4096);
    let mut next_id = 1u64;
    for now in 0..5 * timing.t_refi {
        let phase = (now / 3000) % 3;
        let arrivals = if phase == 1 {
            u32::from(rng.gen_range(0..64) == 0)
        } else {
            match rng.gen_range(0..10) {
                0..=5 => 0,
                6..=8 => rng.gen_range(1..4),
                _ => rng.gen_range(4..16),
            }
        };
        for _ in 0..arrivals {
            let addr = if phase == 2 || rng.gen_bool(0.5) {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..lines)
            };
            let is_write = rng.gen_bool(0.3);
            let accepted = if is_write {
                new.enqueue_write(next_id, addr, now)
            } else {
                new.enqueue_read(next_id, addr, now)
            };
            assert_eq!(
                accepted,
                old.enqueue(next_id, addr, is_write, now),
                "enqueue of {addr} diverged at cycle {now}"
            );
            if accepted {
                next_id += 1;
            }
        }
        let expected = old.tick(now);
        assert_eq!(new.tick(now), &expected[..], "completions at cycle {now}");
    }
    assert_eq!(new.stats, old.stats);
    assert!(new.stats.reads_done > 0 && new.stats.writes_done > 0);
    for ch in 0..topology.channels {
        let (a, b) = (new.dram().channel(ch), old.dram.channel(ch));
        assert_eq!(a.data_bus_busy_cycles, b.data_bus_busy_cycles, "ch {ch}");
        for r in 0..topology.ranks {
            assert_eq!(a.rank(r).stats, b.rank(r).stats, "ch {ch} rank {r}");
            assert!(a.rank(r).stats.refreshes >= 4, "ch {ch} rank {r}");
        }
    }
}

fn lockstep_all_timings(topology: Topology, seed: u64) {
    // DDR3-1600, DDR4-2400 and the Figure 13 extra-burst timings.
    let timings = [
        DdrTiming::ddr3_1600(),
        DdrTiming::ddr4_2400(),
        DdrTiming::ddr3_1600().with_extra_burst(1),
        DdrTiming::ddr3_1600().with_extra_burst(4),
    ];
    for (i, timing) in timings.into_iter().enumerate() {
        lockstep(topology, timing, SchedConfig::default(), seed + i as u64);
    }
}

#[test]
fn matches_reference_baseline() {
    lockstep_all_timings(Topology::baseline(), 11);
}

#[test]
fn matches_reference_single_rank() {
    let t = Topology {
        ranks: 1,
        ..Topology::baseline()
    };
    lockstep_all_timings(t, 21);
}

#[test]
fn matches_reference_two_channel() {
    let t = Topology {
        channels: 2,
        ..Topology::baseline()
    };
    lockstep_all_timings(t, 31);
}

#[test]
fn matches_reference_ganged() {
    // Double-Chipkill's ganging: one rank on each of two channels.
    let t = Topology {
        channels: 2,
        ranks: 1,
        ..Topology::baseline()
    };
    lockstep_all_timings(t, 41);
}

#[test]
fn matches_reference_tiny() {
    // One channel, one rank, two banks, few rows: maximal contention.
    let t = Topology {
        channels: 1,
        ranks: 1,
        banks: 2,
        rows: 8,
        cols: 16,
    };
    lockstep_all_timings(t, 51);
}

#[test]
fn matches_reference_tight_queues() {
    // Short queues and a zero-width drain band (lo == hi): constant
    // back-pressure and drain episodes that grant no read grace.
    for (i, (hi, lo)) in [(6, 2), (4, 4)].into_iter().enumerate() {
        let config = SchedConfig {
            read_queue_cap: 8,
            write_queue_cap: 8,
            write_drain_hi: hi,
            write_drain_lo: lo,
        };
        lockstep(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            config,
            61 + i as u64,
        );
    }
}
