//! Bank/rank/channel state machines enforcing DDR3 timing.
//!
//! Each structure tracks "earliest allowed cycle" registers for the
//! commands that touch it; the scheduler may issue a command only when the
//! corresponding `can_*` query passes, and every `issue_*` updates the
//! registers per the JEDEC constraint graph (tRCD, tRP, tRAS, tRC, tCCD,
//! tRRD, tFAW, tWTR, tWR, tRTP, tRTRS, tREFI/tRFC).
//!
//! The same registers are exposed as thresholds for the scheduler's
//! one-pass scan: `Dram::bank_gates` folds every bank-, rank- and
//! channel-level constraint into one earliest cycle per bank for a column
//! access to its open row and one for the command a row miss needs (ACT
//! when closed, PRE when open), so each `can_*` predicate is exactly
//! `now >= threshold` plus its open-row condition.

use crate::timing::DdrTiming;
use std::collections::VecDeque;

/// One DRAM bank's scheduling state.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    next_act: u64,
    next_read: u64,
    next_write: u64,
    next_pre: u64,
}

impl Bank {
    fn new() -> Self {
        Self {
            open_row: None,
            next_act: 0,
            next_read: 0,
            next_write: 0,
            next_pre: 0,
        }
    }
}

/// The marker [`BankGate::open_row`] holds for a closed bank: never a row
/// index, since a row is below `Topology::rows`.
pub(crate) const CLOSED: u32 = u32::MAX;

/// One bank's issue thresholds at the current state, for one queue's
/// column command (READ or WRITE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BankGate {
    /// The open row, or [`CLOSED`].
    pub(crate) open_row: u32,
    /// Earliest cycle of a column access to `open_row`.
    pub(crate) hit: u64,
    /// Earliest cycle of the command a request for any other row needs:
    /// ACT when the bank is closed, PRE when it is open.
    pub(crate) miss: u64,
}

/// Per-rank activity counters (drive the power model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// ACT commands issued.
    pub acts: u64,
    /// READ bursts issued.
    pub reads: u64,
    /// WRITE bursts issued.
    pub writes: u64,
    /// REFRESH commands issued.
    pub refreshes: u64,
    /// Cycles with at least one bank open (active-standby).
    pub active_cycles: u64,
}

/// One rank's scheduling state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Banks holding an open row (kept by activate and precharge).
    open_banks: u32,
    /// Times of the last four ACTs (tFAW window).
    act_window: VecDeque<u64>,
    next_act_rrd: u64,
    next_read_cas: u64,
    next_write_cas: u64,
    refresh_until: u64,
    next_refresh_due: u64,
    /// Activity counters.
    pub stats: RankStats,
}

impl Rank {
    fn new(banks: u32, refresh_offset: u64) -> Self {
        Self {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            open_banks: 0,
            act_window: VecDeque::with_capacity(4),
            next_act_rrd: 0,
            next_read_cas: 0,
            next_write_cas: 0,
            refresh_until: 0,
            next_refresh_due: refresh_offset,
            stats: RankStats::default(),
        }
    }

    /// The bank states (read-only).
    pub fn bank(&self, b: u32) -> &Bank {
        &self.banks[b as usize]
    }

    /// `true` if any bank holds an open row.
    #[inline]
    pub fn any_bank_open(&self) -> bool {
        self.open_banks > 0
    }

    /// The cycle this rank is next due for a refresh.
    #[inline]
    pub(crate) fn next_refresh_due(&self) -> u64 {
        self.next_refresh_due
    }

    /// The cycle the rank's current refresh ends (in the past when idle).
    #[inline]
    pub(crate) fn refresh_until(&self) -> u64 {
        self.refresh_until
    }
}

/// One channel: its ranks plus the shared data bus.
#[derive(Debug, Clone)]
pub struct Channel {
    ranks: Vec<Rank>,
    data_bus_free: u64,
    last_data_rank: Option<u32>,
    /// Cycles the data bus carried data (bus-utilization stat).
    pub data_bus_busy_cycles: u64,
}

impl Channel {
    /// Rank accessor.
    pub fn rank(&self, r: u32) -> &Rank {
        &self.ranks[r as usize]
    }
}

/// The full DRAM system state.
#[derive(Debug, Clone)]
pub struct Dram {
    timing: DdrTiming,
    channels: Vec<Channel>,
}

impl Dram {
    /// Builds the state for `channels × ranks × banks`. Refresh timers are
    /// staggered across ranks to avoid synchronized refresh storms.
    pub fn new(timing: DdrTiming, channels: u32, ranks: u32, banks: u32) -> Self {
        let channels = (0..channels)
            .map(|c| Channel {
                ranks: (0..ranks)
                    .map(|r| {
                        let offset = timing.t_refi * (c as u64 * ranks as u64 + r as u64 + 1)
                            / (channels as u64 * ranks as u64);
                        Rank::new(banks, offset.max(1))
                    })
                    .collect(),
                data_bus_free: 0,
                last_data_rank: None,
                data_bus_busy_cycles: 0,
            })
            .collect();
        Self { timing, channels }
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &DdrTiming {
        &self.timing
    }

    /// Channel accessor.
    pub fn channel(&self, c: u32) -> &Channel {
        &self.channels[c as usize]
    }

    fn rank_mut(&mut self, c: u32, r: u32) -> &mut Rank {
        &mut self.channels[c as usize].ranks[r as usize]
    }

    /// Fills `out` with the gates of every bank of channel `c`, indexed
    /// `rank * banks + bank`, for a column command of the given kind.
    /// A command may issue at `now` iff `now >= ` its threshold: this folds
    /// the bank's registers (tRCD, tRAS, tRC, tRP, tRTP, tWR) with its
    /// rank's (refresh, tCCD, tWTR, tRRD, tFAW) and the data bus (occupancy
    /// plus tRTRS on a rank switch), exactly as the `can_*` predicates do.
    pub(crate) fn bank_gates(&self, c: u32, writes: bool, out: &mut Vec<BankGate>) {
        let t = &self.timing;
        let ch = self.channel(c);
        out.clear();
        for (r, rank) in ch.ranks.iter().enumerate() {
            let mut bus = ch.data_bus_free;
            if ch.last_data_rank.is_some_and(|last| last as usize != r) {
                bus += t.t_rtrs;
            }
            let refresh = rank.refresh_until;
            let column = if writes {
                refresh
                    .max(rank.next_write_cas)
                    .max(bus.saturating_sub(t.t_cwd))
            } else {
                refresh
                    .max(rank.next_read_cas)
                    .max(bus.saturating_sub(t.t_cas))
            };
            let mut act = refresh.max(rank.next_act_rrd);
            if rank.act_window.len() == 4 {
                if let Some(&oldest) = rank.act_window.front() {
                    act = act.max(oldest + t.t_faw);
                }
            }
            out.extend(rank.banks.iter().map(|b| match b.open_row {
                Some(row) => BankGate {
                    open_row: row,
                    hit: column.max(if writes { b.next_write } else { b.next_read }),
                    miss: refresh.max(b.next_pre),
                },
                None => BankGate {
                    open_row: CLOSED,
                    hit: u64::MAX,
                    miss: act.max(b.next_act),
                },
            }));
        }
    }

    /// Accounts one elapsed cycle of active-standby time (call once per
    /// cycle from the driver).
    pub fn tick_stats(&mut self, _now: u64) {
        for ch in &mut self.channels {
            for rank in &mut ch.ranks {
                if rank.any_bank_open() {
                    rank.stats.active_cycles += 1;
                }
            }
        }
    }

    // ---- refresh ----------------------------------------------------

    /// `true` if the rank is due (or overdue) for a refresh.
    pub fn refresh_due(&self, c: u32, r: u32, now: u64) -> bool {
        let rank = self.channel(c).rank(r);
        now >= rank.next_refresh_due
    }

    /// `true` if the rank is currently executing a refresh.
    pub fn refreshing(&self, c: u32, r: u32, now: u64) -> bool {
        now < self.channel(c).rank(r).refresh_until
    }

    /// Issues a refresh: all banks are closed and the rank blocks for
    /// tRFC. The scheduler calls this only once all banks are precharged
    /// (it stops issuing new activates to a refresh-due rank).
    pub fn issue_refresh(&mut self, c: u32, r: u32, now: u64) {
        let t_rfc = self.timing.t_rfc;
        let t_refi = self.timing.t_refi;
        let t_rc = self.timing.t_rc;
        let rank = self.rank_mut(c, r);
        debug_assert!(!rank.any_bank_open(), "refresh with open banks");
        rank.refresh_until = now + t_rfc;
        rank.next_refresh_due += t_refi;
        for bank in &mut rank.banks {
            bank.next_act = bank.next_act.max(now + t_rfc);
        }
        // tFAW bookkeeping: a refresh internally activates rows, but JEDEC
        // only requires tRFC before the next ACT; clear the window.
        rank.act_window.clear();
        rank.next_act_rrd = rank.next_act_rrd.max(now + t_rfc.min(t_rc));
        rank.stats.refreshes += 1;
    }

    // ---- activate ---------------------------------------------------

    /// `true` if ACT(row) may issue to the bank at `now`.
    pub fn can_activate(&self, c: u32, r: u32, b: u32, now: u64) -> bool {
        let rank = self.channel(c).rank(r);
        if now < rank.refresh_until {
            return false;
        }
        let bank = rank.bank(b);
        if bank.open_row.is_some() || now < bank.next_act || now < rank.next_act_rrd {
            return false;
        }
        if rank.act_window.len() == 4 {
            if let Some(&oldest) = rank.act_window.front() {
                if now < oldest + self.timing.t_faw {
                    return false;
                }
            }
        }
        true
    }

    /// Issues ACT(row).
    pub fn issue_activate(&mut self, c: u32, r: u32, b: u32, row: u32, now: u64) {
        debug_assert!(self.can_activate(c, r, b, now));
        let t = self.timing;
        let rank = self.rank_mut(c, r);
        let bank = &mut rank.banks[b as usize];
        if bank.open_row.replace(row).is_none() {
            rank.open_banks += 1;
        }
        bank.next_read = now + t.t_rcd;
        bank.next_write = now + t.t_rcd;
        bank.next_pre = now + t.t_ras;
        bank.next_act = now + t.t_rc;
        rank.next_act_rrd = now + t.t_rrd;
        if rank.act_window.len() == 4 {
            rank.act_window.pop_front();
        }
        rank.act_window.push_back(now);
        rank.stats.acts += 1;
    }

    // ---- precharge --------------------------------------------------

    /// `true` if PRE may issue to the bank at `now`.
    pub fn can_precharge(&self, c: u32, r: u32, b: u32, now: u64) -> bool {
        let rank = self.channel(c).rank(r);
        if now < rank.refresh_until {
            return false;
        }
        let bank = rank.bank(b);
        bank.open_row.is_some() && now >= bank.next_pre
    }

    /// Issues PRE.
    pub fn issue_precharge(&mut self, c: u32, r: u32, b: u32, now: u64) {
        debug_assert!(self.can_precharge(c, r, b, now));
        let t_rp = self.timing.t_rp;
        let rank = self.rank_mut(c, r);
        let bank = &mut rank.banks[b as usize];
        if bank.open_row.take().is_some() {
            rank.open_banks -= 1;
        }
        bank.next_act = bank.next_act.max(now + t_rp);
    }

    // ---- column access ----------------------------------------------

    fn data_bus_ready(&self, c: u32, r: u32, data_start: u64) -> bool {
        let ch = self.channel(c);
        let mut earliest = ch.data_bus_free;
        if ch.last_data_rank.is_some() && ch.last_data_rank != Some(r) {
            earliest += self.timing.t_rtrs;
        }
        data_start >= earliest
    }

    /// `true` if READ may issue to `(rank, bank)` for `row` at `now`.
    pub fn can_read(&self, c: u32, r: u32, b: u32, row: u32, now: u64) -> bool {
        let rank = self.channel(c).rank(r);
        if now < rank.refresh_until || now < rank.next_read_cas {
            return false;
        }
        let bank = rank.bank(b);
        bank.open_row == Some(row)
            && now >= bank.next_read
            && self.data_bus_ready(c, r, now + self.timing.t_cas)
    }

    /// Issues READ; returns the cycle the last data beat arrives.
    pub fn issue_read(&mut self, c: u32, r: u32, b: u32, row: u32, now: u64) -> u64 {
        debug_assert!(self.can_read(c, r, b, row, now));
        let t = self.timing;
        let data_start = now + t.t_cas;
        let data_end = data_start + t.t_burst;
        {
            let ch = &mut self.channels[c as usize];
            ch.data_bus_free = data_end;
            ch.last_data_rank = Some(r);
            ch.data_bus_busy_cycles += t.t_burst;
        }
        let rank = self.rank_mut(c, r);
        rank.next_read_cas = rank.next_read_cas.max(now + t.t_ccd);
        rank.next_write_cas = rank.next_write_cas.max(data_end + t.t_rtrs);
        let bank = &mut rank.banks[b as usize];
        bank.next_pre = bank.next_pre.max(now + t.t_rtp);
        rank.stats.reads += 1;
        data_end
    }

    /// `true` if WRITE may issue to `(rank, bank)` for `row` at `now`.
    pub fn can_write(&self, c: u32, r: u32, b: u32, row: u32, now: u64) -> bool {
        let rank = self.channel(c).rank(r);
        if now < rank.refresh_until || now < rank.next_write_cas {
            return false;
        }
        let bank = rank.bank(b);
        bank.open_row == Some(row)
            && now >= bank.next_write
            && self.data_bus_ready(c, r, now + self.timing.t_cwd)
    }

    /// Issues WRITE; returns the cycle the last data beat is written.
    pub fn issue_write(&mut self, c: u32, r: u32, b: u32, row: u32, now: u64) -> u64 {
        debug_assert!(self.can_write(c, r, b, row, now));
        let t = self.timing;
        let data_start = now + t.t_cwd;
        let data_end = data_start + t.t_burst;
        {
            let ch = &mut self.channels[c as usize];
            ch.data_bus_free = data_end;
            ch.last_data_rank = Some(r);
            ch.data_bus_busy_cycles += t.t_burst;
        }
        let rank = self.rank_mut(c, r);
        rank.next_write_cas = rank.next_write_cas.max(now + t.t_ccd);
        // Write-to-read turnaround (tWTR) applies from end of write data.
        rank.next_read_cas = rank.next_read_cas.max(data_end + t.t_wtr);
        let bank = &mut rank.banks[b as usize];
        // Write recovery before precharge.
        bank.next_pre = bank.next_pre.max(data_end + t.t_wr);
        rank.stats.writes += 1;
        data_end
    }
}

#[cfg(test)]
impl Dram {
    /// [`Dram::tick_stats`] with the bank scan the open-bank count
    /// replaced (the reference scheduler's accounting).
    pub(crate) fn tick_stats_scanning(&mut self) {
        for ch in &mut self.channels {
            for rank in &mut ch.ranks {
                if rank.banks.iter().any(|b| b.open_row.is_some()) {
                    rank.stats.active_cycles += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DdrTiming::ddr3_1600(), 1, 2, 8)
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let mut d = dram();
        assert!(d.can_activate(0, 0, 0, 0));
        d.issue_activate(0, 0, 0, 42, 0);
        let t_rcd = d.timing().t_rcd;
        assert!(!d.can_read(0, 0, 0, 42, t_rcd - 1));
        assert!(d.can_read(0, 0, 0, 42, t_rcd));
        // Wrong row never readable.
        assert!(!d.can_read(0, 0, 0, 43, t_rcd));
    }

    #[test]
    fn cannot_activate_open_bank() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 1, 0);
        assert!(!d.can_activate(0, 0, 0, 100));
    }

    #[test]
    fn precharge_waits_for_tras() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 1, 0);
        let t_ras = d.timing().t_ras;
        assert!(!d.can_precharge(0, 0, 0, t_ras - 1));
        assert!(d.can_precharge(0, 0, 0, t_ras));
        d.issue_precharge(0, 0, 0, t_ras);
        // tRP before next ACT; also tRC from the original ACT.
        let earliest = (t_ras + d.timing().t_rp).max(d.timing().t_rc);
        assert!(!d.can_activate(0, 0, 0, earliest - 1));
        assert!(d.can_activate(0, 0, 0, earliest));
    }

    #[test]
    fn tfaw_limits_bursts_of_activates() {
        let mut d = dram();
        let t_rrd = d.timing().t_rrd;
        let mut now = 0;
        for b in 0..4 {
            assert!(d.can_activate(0, 0, b, now), "bank {b} at {now}");
            d.issue_activate(0, 0, b, 0, now);
            now += t_rrd;
        }
        // Fifth ACT must wait for the tFAW window.
        assert!(!d.can_activate(0, 0, 4, now));
        let window_open = d.timing().t_faw; // first ACT at 0
        assert!(d.can_activate(0, 0, 4, window_open));
    }

    #[test]
    fn reads_share_data_bus_tccd_apart() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_activate(0, 0, 1, 6, d.timing().t_rrd);
        // Wait until both banks have cleared tRCD so only tCCD binds.
        let t0 = d.timing().t_rrd + d.timing().t_rcd;
        d.issue_read(0, 0, 0, 5, t0);
        assert!(!d.can_read(0, 0, 1, 6, t0 + 1), "tCCD spacing");
        assert!(d.can_read(0, 0, 1, 6, t0 + d.timing().t_ccd));
    }

    #[test]
    fn rank_switch_costs_trtrs() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_activate(0, 1, 0, 5, 1);
        let t0 = d.timing().t_rcd + 1;
        d.issue_read(0, 0, 0, 5, t0);
        // Same-cycle-spacing read on the other rank must wait an extra
        // tRTRS for the bus turnaround.
        let t_ccd = d.timing().t_ccd;
        assert!(!d.can_read(0, 1, 0, 5, t0 + t_ccd));
        assert!(d.can_read(0, 1, 0, 5, t0 + t_ccd + d.timing().t_rtrs));
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        let t0 = d.timing().t_rcd;
        let data_end = d.issue_write(0, 0, 0, 5, t0);
        let t_wtr = d.timing().t_wtr;
        assert!(!d.can_read(0, 0, 0, 5, data_end + t_wtr - 1));
        assert!(d.can_read(0, 0, 0, 5, data_end + t_wtr));
    }

    #[test]
    fn write_recovery_before_precharge() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        let t0 = d.timing().t_rcd;
        let data_end = d.issue_write(0, 0, 0, 5, t0);
        let t_wr = d.timing().t_wr;
        assert!(!d.can_precharge(0, 0, 0, data_end + t_wr - 1));
        assert!(d.can_precharge(0, 0, 0, data_end + t_wr));
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut d = dram();
        let due = d.channel(0).rank(0).next_refresh_due;
        assert!(d.refresh_due(0, 0, due));
        d.issue_refresh(0, 0, due);
        assert!(d.refreshing(0, 0, due + 1));
        assert!(!d.can_activate(0, 0, 0, due + 1));
        let t_rfc = d.timing().t_rfc;
        assert!(!d.refreshing(0, 0, due + t_rfc));
        assert!(d.can_activate(0, 0, 0, due + t_rfc));
        // Next due advanced by tREFI.
        assert!(!d.refresh_due(0, 0, due + t_rfc));
    }

    /// `bank_gates` must agree with every `can_*` predicate, at the
    /// current cycle and at each later one, over seeded random command
    /// sequences that cross refreshes, rank switches and the tFAW window.
    #[test]
    fn bank_gates_agree_with_the_predicates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let timings = [
            DdrTiming::ddr3_1600(),
            DdrTiming::ddr4_2400(),
            DdrTiming::ddr3_1600().with_extra_burst(4),
        ];
        for (seed, timing) in timings.into_iter().enumerate() {
            let (ranks, banks) = (2, 8);
            let mut d = Dram::new(timing, 1, ranks, banks);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            let mut now = 0;
            for _ in 0..6000 {
                d.bank_gates(0, false, &mut reads);
                d.bank_gates(0, true, &mut writes);
                for t in now..now + 40 {
                    for r in 0..ranks {
                        for b in 0..banks {
                            let i = (r * banks + b) as usize;
                            let (rg, wg) = (reads[i], writes[i]);
                            assert_eq!(rg.open_row, wg.open_row);
                            assert_eq!(rg.miss, wg.miss);
                            let open = rg.open_row != CLOSED;
                            assert_eq!(d.can_activate(0, r, b, t), !open && t >= rg.miss);
                            assert_eq!(d.can_precharge(0, r, b, t), open && t >= rg.miss);
                            for row in [rg.open_row, 7] {
                                let hit = open && row == rg.open_row;
                                assert_eq!(d.can_read(0, r, b, row, t), hit && t >= rg.hit);
                                assert_eq!(d.can_write(0, r, b, row, t), hit && t >= wg.hit);
                            }
                        }
                    }
                }
                // Issue one random legal command, then advance time.
                let (r, b) = (rng.gen_range(0..ranks), rng.gen_range(0..banks));
                let row = rng.gen_range(0..4);
                let open = d.channel(0).rank(r).bank(b).open_row;
                if d.refresh_due(0, r, now) && !d.refreshing(0, r, now) {
                    // Quiesce the rank, then refresh it.
                    if !d.channel(0).rank(r).any_bank_open() {
                        d.issue_refresh(0, r, now);
                    } else if d.can_precharge(0, r, b, now) {
                        d.issue_precharge(0, r, b, now);
                    }
                } else if d.can_activate(0, r, b, now) {
                    d.issue_activate(0, r, b, row, now);
                } else if let Some(open) = open {
                    if rng.gen_bool(0.6) && d.can_precharge(0, r, b, now) {
                        d.issue_precharge(0, r, b, now);
                    } else if rng.gen_bool(0.5) && d.can_read(0, r, b, open, now) {
                        d.issue_read(0, r, b, open, now);
                    } else if d.can_write(0, r, b, open, now) {
                        d.issue_write(0, r, b, open, now);
                    }
                }
                now += rng.gen_range(0..4);
            }
            assert!(d.channel(0).rank(0).stats.refreshes > 0);
            assert!(d.channel(0).rank(1).stats.writes > 0);
        }
    }

    #[test]
    fn stats_count_operations() {
        let mut d = dram();
        d.issue_activate(0, 0, 0, 5, 0);
        d.issue_read(0, 0, 0, 5, d.timing().t_rcd);
        let s = d.channel(0).rank(0).stats;
        assert_eq!(s.acts, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn active_cycles_accumulate() {
        let mut d = dram();
        d.tick_stats(0);
        assert_eq!(d.channel(0).rank(0).stats.active_cycles, 0);
        d.issue_activate(0, 0, 0, 5, 0);
        d.tick_stats(1);
        d.tick_stats(2);
        assert_eq!(d.channel(0).rank(0).stats.active_cycles, 2);
    }
}
