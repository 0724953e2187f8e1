//! A ROB-limited multi-core front end (USIMM's processor model).
//!
//! Each core retires non-memory instructions at its fetch/retire width and
//! issues memory operations from its trace. A demand read occupies a
//! reorder-buffer slot until its data returns; the core may run ahead of
//! the *oldest* outstanding read by at most the ROB size (Table V: 160
//! entries, 4-wide at 3.2 GHz = up to 16 instructions per 800 MHz memory
//! cycle). Writebacks are fire-and-forget unless the write queue is full.

use crate::trace::{MemOp, Source};
use std::collections::VecDeque;

/// A memory request a core wants to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Cache-line address.
    pub line_addr: u64,
    /// `true` = writeback.
    pub is_write: bool,
    /// Instruction number of the operation (for completion bookkeeping).
    pub instr_no: u64,
}

/// Why a core could not make progress this cycle (statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallStats {
    /// Cycles fully stalled with the ROB blocked on memory reads.
    pub rob_full_cycles: u64,
    /// Cycles blocked because the memory controller queues were full.
    pub queue_full_cycles: u64,
}

/// One simulated core.
#[derive(Debug)]
pub struct Core {
    trace: Source,
    rob_size: u64,
    instrs_per_mem_cycle: u64,
    /// Instructions retired so far.
    retired: u64,
    /// Target instruction count; the core is finished once reached.
    target: u64,
    /// Instruction number of the next memory op, and the op itself.
    next_op_at: u64,
    next_op: MemOp,
    /// Outstanding demand reads, oldest first (instruction numbers).
    outstanding: VecDeque<u64>,
    /// A request that failed to enqueue last cycle and must retry.
    blocked_request: Option<CoreRequest>,
    /// Finish time, once reached.
    finished_at: Option<u64>,
    /// Stall statistics.
    pub stalls: StallStats,
}

impl Core {
    /// Creates a core that will retire `target` instructions.
    pub fn new(mut trace: Source, rob_size: u64, instrs_per_mem_cycle: u64, target: u64) -> Self {
        let first = trace.next_op();
        Self {
            trace,
            rob_size,
            instrs_per_mem_cycle,
            retired: 0,
            target,
            next_op_at: first.gap,
            next_op: first,
            outstanding: VecDeque::new(),
            blocked_request: None,
            finished_at: None,
            stalls: StallStats::default(),
        }
    }

    /// The cycle the core finished, if it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// `true` once the target instruction count is retired.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Notifies the core that the read issued at instruction `instr_no`
    /// completed.
    pub fn complete_read(&mut self, instr_no: u64) {
        if let Some(pos) = self.outstanding.iter().position(|&i| i == instr_no) {
            self.outstanding.remove(pos);
        }
    }

    /// Advances the core by one memory cycle. `try_issue` is called for
    /// each memory operation reached; it returns `false` when the
    /// controller queue is full (the core then stalls and retries).
    pub fn tick<F: FnMut(CoreRequest) -> bool>(&mut self, now: u64, mut try_issue: F) {
        if self.finished() {
            return;
        }
        // Retry a queue-blocked request before anything else.
        if let Some(req) = self.blocked_request.take() {
            if !try_issue(req) {
                self.blocked_request = Some(req);
                self.stalls.queue_full_cycles += 1;
                return;
            }
            if !req.is_write {
                self.outstanding.push_back(req.instr_no);
            }
            self.advance_past_op();
        }

        let mut budget = self.instrs_per_mem_cycle;
        while budget > 0 && !self.finished() {
            // The ROB caps run-ahead past the oldest outstanding read.
            let rob_limit = self
                .outstanding
                .front()
                .map_or(u64::MAX, |&oldest| oldest + self.rob_size);
            if self.retired >= rob_limit {
                self.stalls.rob_full_cycles += 1;
                break;
            }
            let horizon = self.retired + budget;
            let next_stop = self.next_op_at.min(rob_limit).min(horizon).min(self.target);
            let advanced = next_stop - self.retired;
            self.retired = next_stop;
            budget -= advanced.min(budget);

            if self.retired >= self.target {
                self.finished_at = Some(now);
                break;
            }
            if self.retired == self.next_op_at {
                let req = CoreRequest {
                    line_addr: self.next_op.line_addr,
                    is_write: self.next_op.is_write,
                    instr_no: self.next_op_at,
                };
                if !try_issue(req) {
                    self.blocked_request = Some(req);
                    self.stalls.queue_full_cycles += 1;
                    break;
                }
                if !req.is_write {
                    self.outstanding.push_back(req.instr_no);
                }
                self.advance_past_op();
            } else if advanced == 0 {
                // No progress possible this cycle (ROB limit boundary).
                break;
            }
        }
    }

    fn advance_past_op(&mut self) {
        let op = self.trace.next_op();
        self.next_op_at += op.gap;
        self.next_op = op;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::Topology;
    use crate::workloads::Workload;

    fn core_with(target: u64) -> Core {
        let trace = crate::trace::TraceGen::new(
            Workload::by_name("comm1").unwrap(),
            Topology::baseline(),
            0,
            1,
            7,
        );
        Core::new(Source::Synthetic(trace), 160, 16, target)
    }

    #[test]
    fn finishes_without_memory_stalls_if_issue_always_succeeds_and_completes() {
        let mut c = core_with(10_000);
        let mut cycle = 0;
        let mut issued = Vec::new();
        while !c.finished() && cycle < 1_000_000 {
            c.tick(cycle, |req| {
                issued.push(req);
                true
            });
            // Instantly complete all reads.
            for req in issued.drain(..) {
                if !req.is_write {
                    c.complete_read(req.instr_no);
                }
            }
            cycle += 1;
        }
        assert!(c.finished(), "core never finished");
        assert!(c.retired >= 10_000);
        // 10k instructions at 16/cycle = at least 625 cycles.
        assert!(c.finished_at().unwrap() >= 624);
    }

    #[test]
    fn rob_blocks_runahead() {
        let mut c = core_with(1_000_000);
        // Never complete reads: the core must wedge after ~ROB instructions
        // past the first read.
        let mut first_read_at = None;
        for cycle in 0..10_000 {
            c.tick(cycle, |req| {
                if !req.is_write && first_read_at.is_none() {
                    first_read_at = Some(req.instr_no);
                }
                true
            });
        }
        let first = first_read_at.expect("some read must be issued");
        assert!(!c.finished());
        assert!(c.retired <= first + 160, "retired {} past ROB", c.retired);
        assert!(c.stalls.rob_full_cycles > 0);
    }

    #[test]
    fn queue_full_blocks_and_retries() {
        let mut c = core_with(100_000);
        let mut reject = true;
        let mut issued = 0u64;
        for cycle in 0..200 {
            c.tick(cycle, |_req| {
                if reject {
                    false
                } else {
                    issued += 1;
                    true
                }
            });
            if cycle == 100 {
                reject = false;
            }
        }
        assert!(c.stalls.queue_full_cycles > 0);
        assert!(issued > 0, "requests flow after unblocking");
    }

    #[test]
    fn writes_do_not_occupy_rob() {
        // One read that never completes, then writes inside the ROB
        // run-ahead window: the writes must still issue because only
        // demand reads hold ROB slots.
        let text = "1 R 0x0\n1 W 0x40\n1 W 0x80\n1 W 0xc0\n1 R 0x100\n";
        let trace: crate::tracefile::FileTrace = text.parse().unwrap();
        let mut c = Core::new(Source::File(trace), 160, 16, 50_000);
        let mut writes = 0;
        for cycle in 0..5_000 {
            c.tick(cycle, |req| {
                if req.is_write {
                    writes += 1;
                }
                true
            });
        }
        // The looping trace keeps supplying writes inside the run-ahead
        // window; they must flow even though no read ever completes.
        assert!(
            writes >= 3,
            "writes issue despite the blocked read ({writes})"
        );
        assert!(
            c.stalls.rob_full_cycles > 0,
            "the pending reads did block the ROB"
        );
    }

    #[test]
    fn completion_unblocks() {
        let mut c = core_with(100_000);
        let mut pending: Vec<u64> = Vec::new();
        for cycle in 0..50_000 {
            c.tick(cycle, |req| {
                if !req.is_write {
                    pending.push(req.instr_no);
                }
                true
            });
            // Complete reads with a 30-cycle delay pattern.
            if cycle % 30 == 0 {
                for i in pending.drain(..) {
                    c.complete_read(i);
                }
            }
            if c.finished() {
                break;
            }
        }
        assert!(c.finished(), "retired {} of 100000", c.retired);
    }
}
