//! The memory controller: per-channel queues, FR-FCFS scheduling, write
//! drain and refresh management (USIMM's baseline scheduler).
//!
//! A channel tick makes one pass over the selected queue. Each bank's
//! gates are computed once per pass (`Dram::bank_gates`), each request
//! reads off the earliest cycle its next command (column access, activate
//! or precharge) may issue, and the pass issues the oldest issuable column
//! access, else the oldest activate, else the oldest precharge — FR-FCFS.
//! When nothing can issue, the smallest threshold the pass saw (and each
//! rank's next refresh) is the channel's wake cycle: every `can_*` and
//! refresh predicate is a `now >= threshold` test, so none can change
//! before it, and the channel sleeps until then or until its next enqueue.

use crate::addrmap::{decode, Location, Topology};
use crate::dram::{BankGate, Dram, CLOSED};
use crate::timing::DdrTiming;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xed_telemetry::registry::metrics;

#[cfg(test)]
mod reference;

/// A queued memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique request id (completion routing).
    pub id: u64,
    /// Decoded location.
    pub loc: Location,
    /// Writeback?
    pub is_write: bool,
    /// Cycle the request entered the queue.
    pub arrival: u64,
}

/// Scheduler configuration. [`MemController::new`] rejects a low
/// watermark above the high one and zero queue capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Read-queue capacity per channel.
    pub read_queue_cap: usize,
    /// Write-queue capacity per channel.
    pub write_queue_cap: usize,
    /// Start draining writes above this occupancy.
    pub write_drain_hi: usize,
    /// Stop draining below this occupancy.
    pub write_drain_lo: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            read_queue_cap: 64,
            write_queue_cap: 64,
            write_drain_hi: 40,
            write_drain_lo: 20,
        }
    }
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Reads completed.
    pub reads_done: u64,
    /// Writes issued to DRAM.
    pub writes_done: u64,
    /// Sum of read latencies (enqueue → last data beat), in cycles.
    pub total_read_latency: u64,
}

/// What one FR-FCFS pass over a queue did.
enum Pass {
    /// Issued a READ or WRITE burst.
    Column,
    /// Issued an ACT or PRE.
    Row,
    /// Nothing can issue before this cycle.
    Blocked(u64),
}

/// The multi-channel memory controller.
#[derive(Debug)]
pub struct MemController {
    topology: Topology,
    dram: Dram,
    read_q: Vec<Vec<Request>>,
    write_q: Vec<Vec<Request>>,
    /// Writes left in the current drain episode, per channel. A drain
    /// episode is sized when it starts (queue depth minus low watermark),
    /// so continuously arriving writes cannot starve reads.
    drain_remaining: Vec<u32>,
    /// Read-priority cycles guaranteed after each drain episode, per
    /// channel; a new episode cannot start while grace remains (unless the
    /// read queue is empty), so saturated channels alternate fairly.
    read_grace: Vec<u32>,
    config: SchedConfig,
    /// (completion cycle, request id) min-heap.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// First cycle each channel must tick again: before it nothing in the
    /// channel's queues can issue and no refresh falls due. An enqueue to
    /// the channel resets it to 0.
    wake: Vec<u64>,
    /// The bank gates of the channel being scheduled (reused).
    gates: Vec<BankGate>,
    /// The completions of the last [`MemController::tick`] (reused).
    done: Vec<u64>,
    /// Statistics.
    pub stats: SchedStats,
}

impl MemController {
    /// Builds the controller and its DRAM state.
    ///
    /// # Panics
    ///
    /// Panics if `config.write_drain_lo > config.write_drain_hi` (a drain
    /// episode is sized as the queue depth minus the low watermark and
    /// would underflow) or if either queue capacity is zero (no request
    /// could ever enter the channel).
    pub fn new(topology: Topology, timing: DdrTiming, config: SchedConfig) -> Self {
        assert!(
            config.write_drain_lo <= config.write_drain_hi,
            "write_drain_lo ({}) above write_drain_hi ({})",
            config.write_drain_lo,
            config.write_drain_hi
        );
        assert!(
            config.read_queue_cap > 0 && config.write_queue_cap > 0,
            "queue capacities must be non-zero"
        );
        let dram = Dram::new(timing, topology.channels, topology.ranks, topology.banks);
        Self {
            topology,
            dram,
            read_q: (0..topology.channels).map(|_| Vec::new()).collect(),
            write_q: (0..topology.channels).map(|_| Vec::new()).collect(),
            drain_remaining: vec![0; topology.channels as usize],
            read_grace: vec![0; topology.channels as usize],
            config,
            completions: BinaryHeap::new(),
            wake: vec![0; topology.channels as usize],
            gates: Vec::with_capacity((topology.ranks * topology.banks) as usize),
            done: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// The DRAM state (activity counters for the power model).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The topology in force.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Attempts to enqueue a demand read. Returns `false` if the channel's
    /// read queue is full.
    pub fn enqueue_read(&mut self, id: u64, line_addr: u64, now: u64) -> bool {
        let loc = decode(&self.topology, line_addr);
        let q = &mut self.read_q[loc.channel as usize];
        if q.len() >= self.config.read_queue_cap {
            return false;
        }
        self.wake[loc.channel as usize] = 0;
        q.push(Request {
            id,
            loc,
            is_write: false,
            arrival: now,
        });
        // Queue-depth sample per enqueue: a simulated memory cycle costs
        // 0.5-0.8 us of host time (nominal roster, 2-vCPU Xeon), and a
        // live histogram record here is a few relaxed atomics — switching
        // telemetry off moves that cost by 1-2%, inside run-to-run noise.
        xed_telemetry::observe(&metrics::MEMSIM_SCHED_QUEUE_DEPTH, q.len() as u64);
        true
    }

    /// Attempts to enqueue a writeback. Returns `false` if the channel's
    /// write queue is full.
    pub fn enqueue_write(&mut self, id: u64, line_addr: u64, now: u64) -> bool {
        let loc = decode(&self.topology, line_addr);
        let q = &mut self.write_q[loc.channel as usize];
        if q.len() >= self.config.write_queue_cap {
            return false;
        }
        self.wake[loc.channel as usize] = 0;
        q.push(Request {
            id,
            loc,
            is_write: true,
            arrival: now,
        });
        true
    }

    /// Outstanding requests across all channels.
    pub fn pending(&self) -> usize {
        self.read_q.iter().map(Vec::len).sum::<usize>()
            + self.write_q.iter().map(Vec::len).sum::<usize>()
    }

    /// Advances one memory cycle: issues at most one command per channel
    /// and returns the ids of reads whose data completed this cycle (valid
    /// until the next call).
    pub fn tick(&mut self, now: u64) -> &[u64] {
        for ch in 0..self.topology.channels {
            let ci = ch as usize;
            if now >= self.wake[ci] {
                self.wake[ci] = self.tick_channel(ch, now);
            }
        }
        self.dram.tick_stats(now);
        self.done.clear();
        while let Some(&Reverse((cycle, id))) = self.completions.peek() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            self.done.push(id);
        }
        &self.done
    }

    /// One channel cycle; returns the cycle the channel must tick next
    /// (`now + 1` after issuing a command).
    fn tick_channel(&mut self, ch: u32, now: u64) -> u64 {
        // 1. Refresh has absolute priority: when a rank is due, quiesce it.
        let mut wake = u64::MAX;
        for rank in 0..self.topology.ranks {
            let r = self.dram.channel(ch).rank(rank);
            if now < r.next_refresh_due() {
                wake = wake.min(r.next_refresh_due());
                continue;
            }
            if now < r.refresh_until() {
                // Due again while still refreshing.
                wake = wake.min(r.refresh_until());
                continue;
            }
            if r.any_bank_open() {
                // Close one open bank per cycle until quiesced.
                self.dram.bank_gates(ch, false, &mut self.gates);
                let banks = self.topology.banks as usize;
                let first = rank as usize * banks;
                for (bank, gate) in self.gates[first..first + banks].iter().enumerate() {
                    if gate.open_row != CLOSED {
                        if gate.miss <= now {
                            self.dram.issue_precharge(ch, rank, bank as u32, now);
                            return now + 1;
                        }
                        wake = wake.min(gate.miss);
                    }
                }
                // Banks open but not yet precharge-able: wait.
                return wake;
            }
            self.dram.issue_refresh(ch, rank, now);
            return now + 1;
        }

        // 2. Choose read service or write drain. Drain episodes have a
        // fixed budget set when they start, and each completed episode
        // grants the read queue a grace window before the next may begin —
        // so a steady write stream can never starve reads.
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

        if !write_mode && rq_empty {
            self.read_grace[ci] = 0;
            return wake;
        }
        match self.schedule_queue(ch, now, write_mode) {
            Pass::Blocked(at) => wake.min(at),
            Pass::Row => now + 1,
            Pass::Column => {
                if !write_mode {
                    self.read_grace[ci] = self.read_grace[ci].saturating_sub(1);
                } else if self.drain_remaining[ci] > 0 {
                    self.drain_remaining[ci] -= 1;
                    if self.drain_remaining[ci] == 0 {
                        // Episode over: guarantee the reads a matching window.
                        self.read_grace[ci] =
                            (self.config.write_drain_hi - self.config.write_drain_lo) as u32;
                    }
                }
                now + 1
            }
        }
    }

    /// FR-FCFS over one queue in a single pass: the oldest row-hit column
    /// access first, then the oldest activate to a closed bank, then the
    /// oldest precharge of a conflicting row.
    fn schedule_queue(&mut self, ch: u32, now: u64, writes: bool) -> Pass {
        let ci = ch as usize;
        self.dram.bank_gates(ch, writes, &mut self.gates);
        let queue = if writes {
            &self.write_q[ci]
        } else {
            &self.read_q[ci]
        };
        let banks = self.topology.banks;
        let (mut act, mut pre) = (None, None);
        let mut wake = u64::MAX;
        let mut hit = None;
        for (i, req) in queue.iter().enumerate() {
            let l = req.loc;
            let gate = &self.gates[(l.rank * banks + l.bank) as usize];
            let is_hit = gate.open_row == l.row;
            let at = if is_hit { gate.hit } else { gate.miss };
            if at > now {
                wake = wake.min(at);
            } else if is_hit {
                hit = Some(i);
                break;
            } else if gate.open_row == CLOSED {
                act.get_or_insert(l);
            } else {
                pre.get_or_insert(l);
            }
        }

        if let Some(i) = hit {
            let req = if writes {
                self.write_q[ci].remove(i)
            } else {
                self.read_q[ci].remove(i)
            };
            let l = req.loc;
            if writes {
                self.dram.issue_write(ch, l.rank, l.bank, l.row, now);
                self.stats.writes_done += 1;
            } else {
                let data_end = self.dram.issue_read(ch, l.rank, l.bank, l.row, now);
                self.stats.reads_done += 1;
                self.stats.total_read_latency += data_end - req.arrival;
                xed_telemetry::observe(&metrics::MEMSIM_SCHED_READ_LATENCY, data_end - req.arrival);
                self.completions.push(Reverse((data_end, req.id)));
            }
            Pass::Column
        } else if let Some(l) = act {
            self.dram.issue_activate(ch, l.rank, l.bank, l.row, now);
            Pass::Row
        } else if let Some(l) = pre {
            self.dram.issue_precharge(ch, l.rank, l.bank, now);
            Pass::Row
        } else {
            Pass::Blocked(wake)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> MemController {
        MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig::default(),
        )
    }

    fn run_until_complete(mc: &mut MemController, ids: &[u64], limit: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        for now in 0..limit {
            for &id in mc.tick(now) {
                done.push((now, id));
            }
            if done.len() == ids.len() {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut mc = controller();
        assert!(mc.enqueue_read(1, 0, 0));
        let done = run_until_complete(&mut mc, &[1], 1000);
        assert_eq!(done.len(), 1);
        let t = DdrTiming::ddr3_1600();
        // ACT at ~0, READ at tRCD, data at tRCD+CL+BL.
        let expected = t.t_rcd + t.t_cas + t.t_burst;
        assert!(
            (done[0].0 as i64 - expected as i64).abs() <= 2,
            "completed at {} expected ~{expected}",
            done[0].0
        );
        assert_eq!(mc.stats.reads_done, 1);
    }

    #[test]
    fn row_hit_faster_than_row_miss() {
        let mut mc = controller();
        // Two reads to the same row, consecutive columns (addresses 0 and
        // 4: channel-interleaved, so 0 and 4 share row/bank on channel 0).
        assert!(mc.enqueue_read(1, 0, 0));
        assert!(mc.enqueue_read(2, 4, 0));
        let done = run_until_complete(&mut mc, &[1, 2], 1000);
        assert_eq!(done.len(), 2);
        let gap = done[1].0 - done[0].0;
        // Second read is a row hit: only tCCD apart on the data bus.
        assert!(gap <= DdrTiming::ddr3_1600().t_ccd + 1, "gap {gap}");
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut mc = controller();
        assert!(mc.enqueue_read(1, 0, 0)); // channel 0
        assert!(mc.enqueue_read(2, 1, 0)); // channel 1
        let done = run_until_complete(&mut mc, &[1, 2], 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[0].0, done[1].0,
            "independent channels complete together"
        );
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig {
                read_queue_cap: 2,
                ..SchedConfig::default()
            },
        );
        assert!(mc.enqueue_read(1, 0, 0));
        assert!(mc.enqueue_read(2, 4, 0));
        assert!(
            !mc.enqueue_read(3, 8, 0),
            "third read to channel 0 must bounce"
        );
        assert!(mc.enqueue_read(4, 1, 0), "other channels unaffected");
    }

    #[test]
    fn writes_drain_when_read_queue_empty() {
        let mut mc = controller();
        assert!(mc.enqueue_write(1, 0, 0));
        for now in 0..500 {
            mc.tick(now);
            if mc.stats.writes_done == 1 {
                return;
            }
        }
        panic!("write never drained");
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut mc = controller();
        // A few writes (below hi watermark) plus a read: read goes first.
        for i in 0..5 {
            assert!(mc.enqueue_write(100 + i, (8 * i) * 4, 0));
        }
        assert!(mc.enqueue_read(1, 4, 0));
        let mut read_done_at = None;
        for now in 0..2000 {
            for &id in mc.tick(now) {
                if id == 1 {
                    read_done_at = Some(now);
                }
            }
            if read_done_at.is_some() {
                break;
            }
        }
        let read_at = read_done_at.expect("read completes");
        assert!(
            mc.stats.writes_done <= 1,
            "writes mostly waited for the read"
        );
        assert!(read_at < 100);
    }

    #[test]
    fn refresh_eventually_issues() {
        let mut mc = controller();
        let t_refi = DdrTiming::ddr3_1600().t_refi;
        for now in 0..(t_refi * 2) {
            mc.tick(now);
        }
        let mut refreshes = 0;
        for ch in 0..4 {
            for r in 0..2 {
                refreshes += mc.dram().channel(ch).rank(r).stats.refreshes;
            }
        }
        assert!(
            refreshes >= 8,
            "each rank refreshes at least once, got {refreshes}"
        );
    }

    #[test]
    fn saturating_writes_cannot_starve_reads() {
        // Regression: open-loop write pressure must not hold the channel
        // in drain mode forever (bounded drain episodes + read grace).
        let mut mc = controller();
        let mut next_id = 1u64;
        assert!(mc.enqueue_read(0, 0, 0));
        let mut read_done = false;
        for now in 0..50_000 {
            // Keep the write queue topped up on channel 0.
            loop {
                if !mc.enqueue_write(next_id, (next_id % 512) * 4, now) {
                    break;
                }
                next_id += 1;
            }
            if mc.tick(now).contains(&0) {
                read_done = true;
                break;
            }
        }
        assert!(read_done, "read starved behind saturating writes");
    }

    #[test]
    #[should_panic(expected = "write_drain_lo (41) above write_drain_hi (40)")]
    fn inverted_drain_watermarks_are_rejected() {
        MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig {
                write_drain_lo: 41,
                ..SchedConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "queue capacities must be non-zero")]
    fn zero_read_queue_is_rejected() {
        MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig {
                read_queue_cap: 0,
                ..SchedConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "queue capacities must be non-zero")]
    fn zero_write_queue_is_rejected() {
        MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig {
                write_queue_cap: 0,
                ..SchedConfig::default()
            },
        );
    }

    #[test]
    fn equal_drain_watermarks_are_accepted() {
        let mut mc = MemController::new(
            Topology::baseline(),
            DdrTiming::ddr3_1600(),
            SchedConfig {
                write_drain_hi: 20,
                write_drain_lo: 20,
                ..SchedConfig::default()
            },
        );
        assert!(mc.enqueue_write(1, 0, 0));
        for now in 0..500 {
            mc.tick(now);
        }
        assert_eq!(mc.stats.writes_done, 1);
    }

    #[test]
    fn read_latency_accumulates() {
        let mut mc = controller();
        assert!(mc.enqueue_read(1, 0, 0));
        run_until_complete(&mut mc, &[1], 1000);
        assert!(mc.stats.total_read_latency >= DdrTiming::ddr3_1600().read_latency());
    }
}
