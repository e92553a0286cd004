//! Chaos: deterministic source churn, circuit breakers, replica failover.
//!
//! A production federation must keep producing *sequential-equivalent*
//! answers while sources appear, die, flap and degrade mid-run. This module
//! makes that failure behaviour a first-class, deterministic input:
//!
//! * [`ChurnScript`] — a script of timed events on a [`VirtualClock`]
//!   (kill / revive a source, swap its [`LatencyModel`] / [`FlakyModel`])
//!   built with [`ChurnScript::builder`]. Events fire when virtual time
//!   passes their deadline, so the same script on the same clock replays
//!   identically.
//! * [`CircuitBreaker`] — a per-source Closed→Open→HalfOpen state machine
//!   with virtual-clock cooldowns, tripped by consecutive flaky-retry
//!   exhaustion. An open breaker absorbs calls (`short-circuits`) instead of
//!   letting them fail again; after the cooldown one probe call is let
//!   through (HalfOpen) and its outcome closes or re-opens the circuit.
//! * [`ChaosController`] — the pieces assembled behind a
//!   federation: it applies due churn events, gates every replica attempt
//!   (dead? open-circuit?), feeds call outcomes to the breakers and counts
//!   everything per source slot, in the churn, failover, dead-skip,
//!   short-circuit and breaker-trip fields of [`BackendStats`]: a churn
//!   event is charged to the source it targets, a skip to the source
//!   skipped, a failover to the replica that answered and a trip to the
//!   source whose breaker opened. The federation merges each slot into its
//!   source's stats, so its aggregate is the sum of its per-source views.
//!
//! **Equivalence.** Failover changes *who* answers, never *what* is
//! answered: replicas hold the same hidden instance under the same
//! [`ResponsePolicy`](accrel_engine::ResponsePolicy) (same `SoundSample`
//! seed), and every policy's selection is a pure function of the access
//! (`Access::stable_hash`), so any replica's response is byte-for-byte the
//! primary's. Churn and breakers therefore only move cost and routing
//! around; the merge loop's sequential-equivalence guarantee survives as
//! long as *some* live replica answers each access. Churn-event *timing*
//! may differ between executors (threaded wall-clock interleavings vs the
//! async virtual clock), which shifts stats, never content.
//!
//! The synchronous [`Federation`](crate::Federation) has no executor
//! draining a clock, so [`ChaosOptions::pace_micros_per_call`] gives its
//! controller a self-advancing timeline: each wire call ticks the
//! controller's private clock forward by the pace, and events fire as the
//! call counter sweeps past their deadlines. Async federations share the
//! executor's clock and leave the pace at 0.

use std::collections::VecDeque;
use std::sync::Mutex;

use accrel_engine::BackendStats;

use crate::error::FederationError;
use crate::executor::VirtualClock;
use crate::source::{FlakyModel, LatencyModel};

/// The observable state of a [`CircuitBreaker`] at a given virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// The breaker absorbs calls (short-circuit) until the cooldown ends.
    Open,
    /// The cooldown has elapsed: one probe call is allowed through; success
    /// closes the circuit, failure re-opens it (and restarts the cooldown).
    HalfOpen,
}

/// Tuning of a per-source [`CircuitBreaker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerOptions {
    /// Consecutive ultimate failures (retry exhaustions) that trip the
    /// breaker. Minimum 1.
    pub trip_threshold: usize,
    /// Virtual microseconds an open breaker waits before allowing a
    /// HalfOpen probe.
    pub cooldown_micros: u64,
}

impl Default for BreakerOptions {
    fn default() -> Self {
        Self {
            trip_threshold: 3,
            cooldown_micros: 1_000,
        }
    }
}

/// A Closed→Open→HalfOpen circuit breaker over explicit timestamps.
///
/// The machine is pure state + arithmetic: callers pass `now` (virtual
/// microseconds) into every transition, so the breaker itself holds no
/// clock and is trivially testable in isolation. `Open` vs `HalfOpen` is
/// *derived* — an open breaker whose cooldown has elapsed reports
/// `HalfOpen` without any event having to fire.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    options: BreakerOptions,
    consecutive_failures: usize,
    /// `Some(t)` while tripped: the instant of the (latest) trip.
    opened_at: Option<u64>,
    /// `Some(t)` while a HalfOpen probe claimed at `t` is still in flight.
    /// Because `state()` is derived from timestamps, N concurrent callers at
    /// the same virtual instant would all observe `HalfOpen` and all fly;
    /// the claim slot serializes them — exactly one probe per cooldown.
    probe_claimed_at: Option<u64>,
    trips: usize,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(options: BreakerOptions) -> Self {
        Self {
            options: BreakerOptions {
                trip_threshold: options.trip_threshold.max(1),
                ..options
            },
            consecutive_failures: 0,
            opened_at: None,
            probe_claimed_at: None,
            trips: 0,
        }
    }

    /// The state at virtual time `now`.
    pub fn state(&self, now: u64) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now >= at.saturating_add(self.options.cooldown_micros) => {
                BreakerState::HalfOpen
            }
            Some(_) => BreakerState::Open,
        }
    }

    /// Whether a call may be attempted at `now` (`Closed` or a `HalfOpen`
    /// probe). Read-only: does not claim the probe slot, so concurrent
    /// callers may all see `true` — the serving path goes through
    /// [`CircuitBreaker::try_claim_probe`] instead.
    pub fn allows(&self, now: u64) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Attempts to claim permission for a call at `now`. `Closed` always
    /// allows; `Open` never does; `HalfOpen` hands out exactly **one** probe
    /// slot per cooldown — the first caller claims it, every concurrent (or
    /// later) caller is refused until the probe's outcome is recorded or the
    /// claim itself ages out after another cooldown (probe lost in flight).
    pub fn try_claim_probe(&mut self, now: u64) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                let claim_free = self.probe_claimed_at.is_none_or(|claimed| {
                    now >= claimed.saturating_add(self.options.cooldown_micros)
                });
                if claim_free {
                    self.probe_claimed_at = Some(now);
                }
                claim_free
            }
        }
    }

    /// Records a successful call at `now`: resets the failure streak and —
    /// if this was a HalfOpen probe — closes the circuit.
    pub fn record_success(&mut self, _now: u64) {
        self.consecutive_failures = 0;
        self.opened_at = None;
        self.probe_claimed_at = None;
    }

    /// Records an ultimate failure (retry exhaustion) at `now`. In `Closed`
    /// this grows the streak and trips once it reaches the threshold; a
    /// failed `HalfOpen` probe re-opens (another trip, cooldown restarts).
    pub fn record_failure(&mut self, now: u64) {
        match self.state(now) {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.options.trip_threshold {
                    self.opened_at = Some(now);
                    self.trips += 1;
                }
            }
            BreakerState::HalfOpen => {
                self.opened_at = Some(now);
                self.trips += 1;
            }
            // A failure observed while Open (racing threads) keeps it open.
            BreakerState::Open => {}
        }
        self.probe_claimed_at = None;
    }

    /// Closed→Open transitions so far (HalfOpen probes failing back to Open
    /// included).
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// The current consecutive-failure streak (resets on success).
    pub fn consecutive_failures(&self) -> usize {
        self.consecutive_failures
    }
}

/// One churn action, targeting a source by its registered name.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// Deregister the source: replica attempts skip it until revived.
    Kill(String),
    /// Re-register a killed source.
    Revive(String),
    /// Swap (or with `None` remove) the source's latency model.
    SetLatency(String, Option<LatencyModel>),
    /// Swap (or with `None` remove) the source's transient-failure model.
    SetFlaky(String, Option<FlakyModel>),
}

impl ChurnAction {
    /// The source the action targets.
    pub fn source(&self) -> &str {
        match self {
            ChurnAction::Kill(s)
            | ChurnAction::Revive(s)
            | ChurnAction::SetLatency(s, _)
            | ChurnAction::SetFlaky(s, _) => s,
        }
    }
}

/// A churn action with its virtual-time deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Virtual time (microseconds) at or after which the event fires.
    pub at_micros: u64,
    /// What happens.
    pub action: ChurnAction,
}

/// A deterministic script of timed churn events, kept sorted by deadline
/// (stable, so same-instant events fire in insertion order).
///
/// ```
/// use accrel_federation::{ChurnScript, LatencyModel};
///
/// let script = ChurnScript::builder()
///     .set_latency(100, "primary", Some(LatencyModel::recorded(500)))
///     .kill(250, "primary")
///     .revive(900, "primary")
///     .build();
/// assert_eq!(script.len(), 3);
/// assert_eq!(script.events()[1].at_micros, 250);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnScript {
    events: Vec<ChurnEvent>,
}

impl ChurnScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building a script.
    pub fn builder() -> ChurnScriptBuilder {
        ChurnScriptBuilder { events: Vec::new() }
    }

    /// The events, sorted by deadline.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The script without the event at `index` (for shrinking a failing
    /// scenario to a minimal script).
    pub fn without_event(&self, index: usize) -> ChurnScript {
        let mut events = self.events.clone();
        if index < events.len() {
            events.remove(index);
        }
        ChurnScript { events }
    }
}

/// Builder for [`ChurnScript`] — each call appends one timed event;
/// [`ChurnScriptBuilder::build`] stable-sorts by deadline.
#[derive(Debug, Clone)]
pub struct ChurnScriptBuilder {
    events: Vec<ChurnEvent>,
}

impl ChurnScriptBuilder {
    /// Kill `source` at `at_micros`.
    pub fn kill(mut self, at_micros: u64, source: impl Into<String>) -> Self {
        self.events.push(ChurnEvent {
            at_micros,
            action: ChurnAction::Kill(source.into()),
        });
        self
    }

    /// Revive `source` at `at_micros`.
    pub fn revive(mut self, at_micros: u64, source: impl Into<String>) -> Self {
        self.events.push(ChurnEvent {
            at_micros,
            action: ChurnAction::Revive(source.into()),
        });
        self
    }

    /// Swap `source`'s latency model at `at_micros` (`None` removes it).
    pub fn set_latency(
        mut self,
        at_micros: u64,
        source: impl Into<String>,
        latency: Option<LatencyModel>,
    ) -> Self {
        self.events.push(ChurnEvent {
            at_micros,
            action: ChurnAction::SetLatency(source.into(), latency),
        });
        self
    }

    /// Swap `source`'s transient-failure model at `at_micros` (`None`
    /// removes it).
    pub fn set_flaky(
        mut self,
        at_micros: u64,
        source: impl Into<String>,
        flaky: Option<FlakyModel>,
    ) -> Self {
        self.events.push(ChurnEvent {
            at_micros,
            action: ChurnAction::SetFlaky(source.into(), flaky),
        });
        self
    }

    /// Appends an already-built event.
    pub fn event(mut self, event: ChurnEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Finishes the script (stable sort by deadline).
    pub fn build(mut self) -> ChurnScript {
        self.events.sort_by_key(|e| e.at_micros);
        ChurnScript {
            events: self.events,
        }
    }
}

/// Configuration of a federation's chaos layer.
#[derive(Debug, Clone, Default)]
pub struct ChaosOptions {
    /// The churn script to replay.
    pub script: ChurnScript,
    /// Per-source circuit breakers (`None` disables breaking — dead-source
    /// gating and failover still apply).
    pub breaker: Option<BreakerOptions>,
    /// Virtual microseconds the controller's clock self-advances per wire
    /// call. Leave 0 for async federations (their executor's clock already
    /// advances); set non-zero for synchronous federations, which otherwise
    /// have no timeline for the script to fire against.
    pub pace_micros_per_call: u64,
}

impl ChaosOptions {
    /// Chaos with the given script, default breakers, and a synchronous
    /// pace of `pace_micros_per_call`.
    pub fn scripted(script: ChurnScript, pace_micros_per_call: u64) -> Self {
        Self {
            script,
            breaker: Some(BreakerOptions::default()),
            pace_micros_per_call,
        }
    }
}

/// A model swap popped from the script for the federation to forward to the
/// targeted source (kills/revivals are handled inside the controller).
#[derive(Debug, Clone)]
pub(crate) enum ModelSwap {
    Latency(Option<LatencyModel>),
    Flaky(Option<FlakyModel>),
}

/// The verdict of [`ChaosController::gate`] for one replica attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Attempt the call.
    Allow,
    /// The source is currently killed; skip it.
    Dead,
    /// The source's breaker is open; skip it without a wire attempt.
    Open,
}

#[derive(Debug)]
struct SourceSlot {
    alive: bool,
    breaker: Option<CircuitBreaker>,
    /// The chaos counters charged to this source (only the churn,
    /// failover, skip and trip fields are used).
    stats: BackendStats,
}

#[derive(Debug)]
struct ResolvedEvent {
    at_micros: u64,
    source: usize,
    swap: Option<ModelSwap>,
    /// `Some(alive)` for kill/revive events.
    set_alive: Option<bool>,
}

#[derive(Debug)]
struct ControllerInner {
    slots: Vec<SourceSlot>,
    pending: VecDeque<ResolvedEvent>,
}

/// The runtime half of the chaos layer, shared by a federation's calls:
/// fires due churn events, gates replica attempts, and drives the
/// per-source breakers. All mutation is behind one mutex, so concurrent
/// threaded calls stay consistent (their *interleaving* — hence the exact
/// stats split — may vary run to run; response content never does).
#[derive(Debug)]
pub struct ChaosController {
    clock: VirtualClock,
    pace_micros_per_call: u64,
    inner: Mutex<ControllerInner>,
}

impl ChaosController {
    /// Builds a controller for sources named `names` (index-aligned with
    /// the federation's source list) over `clock`. Fails with
    /// [`FederationError::UnknownSource`] if the script names a source that
    /// is not registered.
    pub(crate) fn new(
        options: &ChaosOptions,
        names: &[&str],
        clock: VirtualClock,
    ) -> Result<Self, FederationError> {
        let slots = names
            .iter()
            .map(|_| SourceSlot {
                alive: true,
                breaker: options.breaker.clone().map(CircuitBreaker::new),
                stats: BackendStats::default(),
            })
            .collect();
        let mut pending = VecDeque::with_capacity(options.script.len());
        for event in options.script.events() {
            let name = event.action.source();
            let source = names
                .iter()
                .position(|n| *n == name)
                .ok_or_else(|| FederationError::UnknownSource(name.to_string()))?;
            let (swap, set_alive) = match &event.action {
                ChurnAction::Kill(_) => (None, Some(false)),
                ChurnAction::Revive(_) => (None, Some(true)),
                ChurnAction::SetLatency(_, l) => (Some(ModelSwap::Latency(l.clone())), None),
                ChurnAction::SetFlaky(_, f) => (Some(ModelSwap::Flaky(f.clone())), None),
            };
            pending.push_back(ResolvedEvent {
                at_micros: event.at_micros,
                source,
                swap,
                set_alive,
            });
        }
        Ok(Self {
            clock,
            pace_micros_per_call: options.pace_micros_per_call,
            inner: Mutex::new(ControllerInner { slots, pending }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ControllerInner> {
        self.inner.lock().expect("chaos controller poisoned")
    }

    /// The clock the script fires against (the federation's virtual clock
    /// for async federations; a private self-paced clock for sync ones).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Advances the private pace clock (sync federations; no-op at pace 0)
    /// and pops every event now due, applying kills/revivals internally.
    /// Returns the model swaps for the federation to forward.
    pub(crate) fn on_call(&self) -> Vec<(usize, ModelSwap)> {
        if self.pace_micros_per_call > 0 {
            self.clock.advance_micros(self.pace_micros_per_call);
        }
        let now = self.clock.now_micros();
        let mut inner = self.lock();
        let mut swaps = Vec::new();
        while inner.pending.front().is_some_and(|e| e.at_micros <= now) {
            let event = inner.pending.pop_front().expect("front checked");
            let slot = &mut inner.slots[event.source];
            slot.stats.churn_events += 1;
            if let Some(alive) = event.set_alive {
                slot.alive = alive;
                // A revived source starts with a fresh breaker streak.
                if alive {
                    if let Some(b) = &mut slot.breaker {
                        b.record_success(now);
                    }
                }
            }
            if let Some(swap) = event.swap {
                swaps.push((event.source, swap));
            }
        }
        swaps
    }

    /// Should a call to `source` be attempted right now?
    pub(crate) fn gate(&self, source: usize) -> Gate {
        let now = self.clock.now_micros();
        let mut inner = self.lock();
        let slot = &mut inner.slots[source];
        if !slot.alive {
            slot.stats.dead_skips += 1;
            return Gate::Dead;
        }
        if slot
            .breaker
            .as_mut()
            .is_some_and(|b| !b.try_claim_probe(now))
        {
            slot.stats.short_circuited += 1;
            return Gate::Open;
        }
        Gate::Allow
    }

    /// Feeds a call outcome on `source` to its breaker, charging a trip to
    /// the source when the outcome opens it.
    pub(crate) fn record(&self, source: usize, success: bool) {
        let now = self.clock.now_micros();
        let mut inner = self.lock();
        let slot = &mut inner.slots[source];
        if let Some(breaker) = &mut slot.breaker {
            let trips = breaker.trips();
            if success {
                breaker.record_success(now);
            } else {
                breaker.record_failure(now);
            }
            slot.stats.breaker_trips += breaker.trips() - trips;
        }
    }

    /// Counts a call answered by `replica`, a non-primary replica.
    pub(crate) fn note_failover(&self, replica: usize) {
        self.lock().slots[replica].stats.failovers += 1;
    }

    /// The chaos counters charged to source `source` since the last reset.
    pub(crate) fn source_stats(&self, source: usize) -> BackendStats {
        self.lock().slots[source].stats.clone()
    }

    /// Zeroes every source's chaos counters; liveness, breaker state and
    /// the pending script are untouched.
    pub(crate) fn reset_stats(&self) {
        for slot in &mut self.lock().slots {
            slot.stats = BackendStats::default();
        }
    }

    /// The breaker state of source `source` right now (`None` without
    /// breakers).
    pub fn breaker_state(&self, source: usize) -> Option<BreakerState> {
        let now = self.clock.now_micros();
        self.lock().slots[source]
            .breaker
            .as_ref()
            .map(|b| b.state(now))
    }

    /// Whether source `source` is currently registered (not killed).
    pub fn is_alive(&self, source: usize) -> bool {
        self.lock().slots[source].alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: usize, cooldown: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerOptions {
            trip_threshold: threshold,
            cooldown_micros: cooldown,
        })
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut b = breaker(3, 100);
        assert_eq!(b.state(0), BreakerState::Closed);
        b.record_failure(10);
        b.record_failure(20);
        assert_eq!(b.state(20), BreakerState::Closed);
        assert!(b.allows(20));
        b.record_failure(30);
        assert_eq!(b.state(30), BreakerState::Open);
        assert!(!b.allows(30));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = breaker(2, 100);
        b.record_failure(0);
        b.record_success(1);
        b.record_failure(2);
        assert_eq!(b.state(2), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 1);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn cooldown_moves_open_to_half_open_without_an_event() {
        let mut b = breaker(1, 100);
        b.record_failure(50);
        assert_eq!(b.state(149), BreakerState::Open);
        assert_eq!(b.state(150), BreakerState::HalfOpen);
        assert!(b.allows(150));
    }

    #[test]
    fn half_open_probe_success_closes_the_circuit() {
        let mut b = breaker(1, 100);
        b.record_failure(0);
        assert_eq!(b.state(100), BreakerState::HalfOpen);
        b.record_success(100);
        assert_eq!(b.state(100), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn half_open_probe_failure_reopens_and_restarts_the_cooldown() {
        let mut b = breaker(1, 100);
        b.record_failure(0);
        b.record_failure(100); // failed probe
        assert_eq!(b.trips(), 2);
        assert_eq!(b.state(150), BreakerState::Open);
        assert_eq!(b.state(199), BreakerState::Open);
        assert_eq!(b.state(200), BreakerState::HalfOpen);
    }

    #[test]
    fn failures_while_open_do_not_extend_the_cooldown() {
        let mut b = breaker(1, 100);
        b.record_failure(0);
        b.record_failure(50); // racing observation while Open
        assert_eq!(b.trips(), 1);
        assert_eq!(b.state(100), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_hands_out_exactly_one_probe_slot() {
        let mut b = breaker(1, 100);
        b.record_failure(0);
        assert_eq!(b.state(100), BreakerState::HalfOpen);
        // Two concurrent attempts at the same virtual instant: both would
        // pass the read-only `allows`, but only the first claims the slot.
        assert!(b.allows(100));
        assert!(b.try_claim_probe(100));
        assert!(b.allows(100));
        assert!(!b.try_claim_probe(100));
        // Later attempts inside the same window stay refused too.
        assert!(!b.try_claim_probe(150));
        // The probe's outcome frees the slot (success closes the circuit).
        b.record_success(150);
        assert_eq!(b.state(150), BreakerState::Closed);
        assert!(b.try_claim_probe(150));
    }

    #[test]
    fn a_lost_probe_claim_expires_after_another_cooldown() {
        let mut b = breaker(1, 100);
        b.record_failure(0);
        assert!(b.try_claim_probe(100));
        // No outcome ever recorded (probe lost in flight): the claim blocks
        // further probes for one more cooldown, then ages out.
        assert!(!b.try_claim_probe(199));
        assert!(b.try_claim_probe(200));
    }

    #[test]
    fn a_failed_probe_frees_the_slot_for_the_next_half_open_window() {
        let mut b = breaker(1, 100);
        b.record_failure(0);
        assert!(b.try_claim_probe(100));
        b.record_failure(100); // failed probe: re-open, cooldown restarts
        assert!(!b.try_claim_probe(150)); // Open — not a claim question
        assert!(b.try_claim_probe(200)); // next HalfOpen window, fresh slot
    }

    #[test]
    fn churn_script_builder_stable_sorts_by_deadline() {
        let script = ChurnScript::builder()
            .revive(500, "a")
            .kill(100, "a")
            .set_flaky(
                100,
                "b",
                Some(FlakyModel {
                    period: 1,
                    fail_attempts: 9,
                    retries: 0,
                }),
            )
            .build();
        assert_eq!(script.len(), 3);
        assert_eq!(script.events()[0].action, ChurnAction::Kill("a".into()));
        // Same-deadline events keep insertion order (stable sort).
        assert!(matches!(
            script.events()[1].action,
            ChurnAction::SetFlaky(_, _)
        ));
        assert_eq!(script.events()[2].at_micros, 500);
    }

    #[test]
    fn without_event_drops_exactly_one_event() {
        let script = ChurnScript::builder()
            .kill(100, "a")
            .revive(200, "a")
            .build();
        let shrunk = script.without_event(0);
        assert_eq!(shrunk.len(), 1);
        assert_eq!(shrunk.events()[0].at_micros, 200);
        // Out-of-range index is a no-op.
        assert_eq!(script.without_event(99), script);
    }

    #[test]
    fn controller_fires_events_as_the_pace_clock_sweeps_past() {
        let options = ChaosOptions::scripted(
            ChurnScript::builder()
                .kill(25, "a")
                .set_latency(45, "b", Some(LatencyModel::recorded(7)))
                .revive(1_000, "a")
                .build(),
            10,
        );
        let controller = ChaosController::new(&options, &["a", "b"], VirtualClock::new()).unwrap();
        assert!(controller.is_alive(0));
        // Calls 1..3 advance the clock to 30µs: the kill fires.
        assert!(controller.on_call().is_empty());
        assert!(controller.on_call().is_empty());
        assert!(controller.on_call().is_empty());
        assert!(!controller.is_alive(0));
        assert_eq!(controller.gate(0), Gate::Dead);
        assert_eq!(controller.gate(1), Gate::Allow);
        // Call 5 (50µs) pops the latency swap for the federation to apply.
        let swaps = controller.on_call();
        assert!(swaps.is_empty() || swaps.len() == 1);
        let swaps2 = controller.on_call();
        assert_eq!(swaps.len() + swaps2.len(), 1);
        // Each event is charged to the source it targets, the skip to the
        // source skipped.
        let (a, b) = (controller.source_stats(0), controller.source_stats(1));
        assert_eq!((a.churn_events, a.dead_skips), (1, 1));
        assert_eq!((b.churn_events, b.dead_skips), (1, 0));
    }

    #[test]
    fn controller_rejects_scripts_naming_unknown_sources() {
        let options = ChaosOptions::scripted(ChurnScript::builder().kill(1, "ghost").build(), 1);
        let err = ChaosController::new(&options, &["a"], VirtualClock::new()).unwrap_err();
        assert_eq!(err, FederationError::UnknownSource("ghost".into()));
    }

    #[test]
    fn controller_breakers_short_circuit_and_recover() {
        let options = ChaosOptions {
            script: ChurnScript::new(),
            breaker: Some(BreakerOptions {
                trip_threshold: 2,
                cooldown_micros: 50,
            }),
            pace_micros_per_call: 10,
        };
        let controller = ChaosController::new(&options, &["a"], VirtualClock::new()).unwrap();
        controller.record(0, false);
        controller.record(0, false);
        assert_eq!(controller.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(controller.gate(0), Gate::Open);
        // Five paced calls later the cooldown has elapsed: HalfOpen probe.
        for _ in 0..5 {
            let _ = controller.on_call();
        }
        assert_eq!(controller.breaker_state(0), Some(BreakerState::HalfOpen));
        assert_eq!(controller.gate(0), Gate::Allow);
        controller.record(0, true);
        assert_eq!(controller.breaker_state(0), Some(BreakerState::Closed));
        let stats = controller.source_stats(0);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.short_circuited, 1);
        // A reset zeroes the counters, never the breaker.
        controller.reset_stats();
        assert_eq!(controller.source_stats(0), BackendStats::default());
        assert_eq!(controller.breaker_state(0), Some(BreakerState::Closed));
    }
}
