//! Request coalescing: concurrent identical-key requests share one
//! computation.
//!
//! The first request for a canonical key becomes the *leader*: it runs
//! the engine once, publishing each rendered partial line into a shared
//! [`Flight`] as it completes. Every concurrent request for the same key
//! becomes a *follower*: it attaches to the flight, replays the lines
//! already published, streams new ones as the leader produces them, and
//! receives the identical final response — one evaluation for K clients
//! (`xedd.coalesced` counts the K−1 attachments; the selftest asserts
//! `xedd.evaluations` stayed at 1).
//!
//! Because responses are rendered deterministically (see `render`),
//! leader and followers emit **byte-identical** streams, and a follower
//! that attaches mid-flight observes exactly the prefix a fresh client
//! would have.

use crate::render::CachedResponse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use xed_faultsim::engine::CanonicalKey;

/// The outcome a flight resolves to: the shared response, or the
/// leader's error message (propagated to every follower).
pub type FlightResult = Result<Arc<CachedResponse>, String>;

/// Shared state of one in-flight evaluation.
#[derive(Debug, Default)]
struct FlightState {
    /// Rendered partial lines published so far.
    lines: Vec<String>,
    /// The terminal outcome, once the leader finished.
    done: Option<FlightResult>,
}

/// One in-flight computation: published partials plus a condition
/// variable followers park on.
#[derive(Debug, Default)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
    /// The leader's trace id (0 until the leader announces it) — what a
    /// follower records as the `a` attribute of its `CoalesceFollow`
    /// span, tying the two traces together.
    leader_trace: AtomicU64,
}

/// Recovers a usable guard from a possibly-poisoned lock. Flight state
/// is plain data and its mutations are single-statement, so a poisoned
/// mutex is still consistent.
fn lock_state(flight: &Flight) -> MutexGuard<'_, FlightState> {
    match flight.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Flight {
    /// Blocks until the flight completes and returns the shared outcome,
    /// replaying every published partial line (those already emitted and
    /// those still arriving) through `on_line` first.
    pub fn follow(&self, mut on_line: impl FnMut(&str)) -> FlightResult {
        let mut seen = 0usize;
        let mut state = lock_state(self);
        loop {
            while seen < state.lines.len() {
                // Clone the pending line out so the callback (which may
                // block on a client socket) runs without the flight lock.
                let line = state.lines[seen].clone();
                seen += 1;
                drop(state);
                on_line(&line);
                state = lock_state(self);
            }
            if let Some(result) = &state.done {
                return result.clone();
            }
            state = match self.cv.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// The leader's trace id, once announced via
    /// [`LeaderGuard::set_trace`] (0 before that, or for untraced
    /// leaders). Release/Acquire: a follower that saw the flight in the
    /// table may read before the leader stores; 0 then is fine — the
    /// handoff span simply lacks the edge.
    pub fn leader_trace(&self) -> u64 {
        self.leader_trace.load(Ordering::Acquire)
    }
}

/// The in-flight table: canonical key → live flight.
#[derive(Debug, Default)]
pub struct Coalescer {
    table: Mutex<HashMap<CanonicalKey, Arc<Flight>>>,
}

/// What joining the table made this request.
#[derive(Debug)]
pub enum Join<'a> {
    /// First in: run the evaluation and publish through the guard.
    Leader(LeaderGuard<'a>),
    /// An identical request is already computing: attach to it.
    Follower(Arc<Flight>),
}

impl Coalescer {
    /// A fresh, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins the table under `key`: the first caller per key leads, every
    /// concurrent caller follows. The leader's guard removes the flight
    /// at completion (or on unwind), so later requests start fresh —
    /// normally hitting the memo cache the leader populated.
    pub fn join(&self, key: CanonicalKey) -> Join<'_> {
        let mut table = match self.table.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(flight) = table.get(&key) {
            return Join::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::default());
        table.insert(key, Arc::clone(&flight));
        Join::Leader(LeaderGuard {
            coalescer: self,
            key,
            flight,
            finished: false,
        })
    }

    fn remove(&self, key: &CanonicalKey) {
        let mut table = match self.table.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        table.remove(key);
    }
}

/// The leader's handle on its flight. Publishes partials, resolves the
/// flight on finish — and resolves it with an error if dropped without
/// finishing (e.g. the evaluation panicked), so followers never hang.
#[derive(Debug)]
pub struct LeaderGuard<'a> {
    coalescer: &'a Coalescer,
    key: CanonicalKey,
    flight: Arc<Flight>,
    finished: bool,
}

impl LeaderGuard<'_> {
    /// The key this flight computes.
    pub fn key(&self) -> &CanonicalKey {
        &self.key
    }

    /// Announces the leader's trace id to followers (see
    /// [`Flight::leader_trace`]).
    pub fn set_trace(&self, trace_id: u64) {
        self.flight.leader_trace.store(trace_id, Ordering::Release);
    }

    /// Publishes one rendered partial line to all followers.
    pub fn publish_line(&self, line: &str) {
        let mut state = lock_state(&self.flight);
        state.lines.push(line.to_string());
        drop(state);
        self.flight.cv.notify_all();
    }

    /// Resolves the flight and removes it from the table.
    pub fn finish(mut self, result: FlightResult) {
        self.resolve(result);
    }

    fn resolve(&mut self, result: FlightResult) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut state = lock_state(&self.flight);
        state.done = Some(result);
        drop(state);
        self.flight.cv.notify_all();
        self.coalescer.remove(&self.key);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        self.resolve(Err("evaluation aborted before completing".to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CanonicalKey {
        CanonicalKey { hi: n, lo: n }
    }

    fn response(body: &str) -> Arc<CachedResponse> {
        Arc::new(CachedResponse {
            key: key(9),
            progress_lines: Vec::new(),
            body: body.to_string(),
        })
    }

    #[test]
    fn second_joiner_becomes_follower() {
        let c = Coalescer::new();
        let leader = match c.join(key(1)) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("first joiner must lead"),
        };
        assert!(matches!(c.join(key(1)), Join::Follower(_)));
        assert!(
            matches!(c.join(key(2)), Join::Leader(_)),
            "distinct keys lead"
        );
        leader.finish(Ok(response("done")));
        assert!(
            matches!(c.join(key(1)), Join::Leader(_)),
            "finished key restarts"
        );
    }

    #[test]
    fn followers_see_all_lines_and_the_result() {
        let c = Coalescer::new();
        let leader = match c.join(key(1)) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("first joiner must lead"),
        };
        leader.publish_line("line-0");
        let flight = match c.join(key(1)) {
            Join::Follower(f) => f,
            Join::Leader(_) => panic!("must follow"),
        };
        let handle = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let result = flight.follow(|l| lines.push(l.to_string()));
            (lines, result)
        });
        leader.publish_line("line-1");
        leader.finish(Ok(response("final")));
        let (lines, result) = handle.join().expect("follower thread");
        assert_eq!(lines, ["line-0", "line-1"]);
        assert_eq!(result.expect("ok").body, "final");
        assert!(c.table.lock().expect("table lock").is_empty());
    }

    #[test]
    fn leader_trace_id_reaches_followers() {
        let c = Coalescer::new();
        let leader = match c.join(key(1)) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("first joiner must lead"),
        };
        let flight = match c.join(key(1)) {
            Join::Follower(f) => f,
            Join::Leader(_) => panic!("must follow"),
        };
        assert_eq!(flight.leader_trace(), 0, "unannounced trace reads as 0");
        leader.set_trace(0xABCD);
        assert_eq!(flight.leader_trace(), 0xABCD);
        leader.finish(Ok(response("done")));
    }

    #[test]
    fn dropped_leader_resolves_followers_with_an_error() {
        let c = Coalescer::new();
        let leader = match c.join(key(1)) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("first joiner must lead"),
        };
        let flight = match c.join(key(1)) {
            Join::Follower(f) => f,
            Join::Leader(_) => panic!("must follow"),
        };
        drop(leader);
        let result = flight.follow(|_| {});
        assert!(result.is_err(), "abandoned flight must error, not hang");
        assert!(c.table.lock().expect("table lock").is_empty());
    }

    #[test]
    fn many_concurrent_followers_converge() {
        let c = Arc::new(Coalescer::new());
        let leader = match c.join(key(7)) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("first joiner must lead"),
        };
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || match c.join(key(7)) {
                Join::Follower(f) => f.follow(|_| {}).expect("ok").body.clone(),
                Join::Leader(_) => panic!("leader already exists"),
            }));
        }
        // Let followers attach before resolving.
        std::thread::sleep(std::time::Duration::from_millis(20));
        leader.finish(Ok(response("shared")));
        for h in handles {
            assert_eq!(h.join().expect("follower"), "shared");
        }
    }
}
