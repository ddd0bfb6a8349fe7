//! Per-client-class admission control for the network front door.
//!
//! The paper's streaming model (§4.1) assumes mutations and queries
//! arrive no faster than refinement can absorb them; a public endpoint
//! cannot. This module is the ingress discipline: every request names a
//! [`ClientClass`] and pays for itself out of that class's
//! [`TokenBucket`] before it may touch the session queue. A request the
//! bucket cannot cover is *shed* with a typed [`RetryAfter`] carrying
//! the earliest time the tokens will exist — clients back off instead
//! of piling onto the queue, so interactive traffic keeps its latency
//! budget while bulk traffic absorbs the loss (RisGraph's per-update
//! latency-tail discipline is the bar).
//!
//! Shedding is also how the memory-budget degradation ladder reaches
//! the ingress: [`AdmissionController::observe_degrade`] (fed by the
//! session worker after every batch) halves the refill rate of the
//! non-interactive classes per [`DegradeLevel`] rung, so a degraded
//! session tightens admission instead of timing requests out
//! mid-refinement.
//!
//! Buckets are fed an explicit nanosecond clock (`*_at` methods), which
//! makes refill arithmetic deterministic under test; the wall-clock
//! wrappers are one [`Instant`] read. All shared state lives behind one
//! `Mutex` per class — admission runs once per *request*, not per edge,
//! so a lock is far below the noise floor of the TCP round-trip that
//! precedes it.

use std::sync::Mutex;
use std::time::Instant;

use crate::streaming::DegradeLevel;
use crate::telemetry;

/// Traffic classes the front door distinguishes, in descending priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientClass {
    /// Latency-sensitive traffic (singleton updates, point queries).
    Interactive,
    /// Throughput traffic (mutation batches, full-value queries).
    Bulk,
    /// Scavenger traffic; first to be shed under any pressure.
    BestEffort,
}

/// All classes, priority order. Index matches [`ClientClass::index`].
pub const CLASSES: [ClientClass; 3] = [
    ClientClass::Interactive,
    ClientClass::Bulk,
    ClientClass::BestEffort,
];

impl ClientClass {
    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            ClientClass::Interactive => 0,
            ClientClass::Bulk => 1,
            ClientClass::BestEffort => 2,
        }
    }

    /// Stable lower-case name used in JSON bodies and trace events.
    pub fn name(self) -> &'static str {
        match self {
            ClientClass::Interactive => "interactive",
            ClientClass::Bulk => "bulk",
            ClientClass::BestEffort => "best-effort",
        }
    }

    /// Parses the `X-Client-Class` header value (case-insensitive;
    /// `best_effort` and `best-effort` both accepted).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interactive" => Some(ClientClass::Interactive),
            "bulk" => Some(ClientClass::Bulk),
            "best-effort" | "best_effort" | "besteffort" => Some(ClientClass::BestEffort),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed shed response: the request was not admitted; retrying before
/// `millis` elapse will be shed again (modulo concurrent refills).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryAfter {
    /// The class whose bucket rejected the request.
    pub class: ClientClass,
    /// Milliseconds until the bucket will hold enough tokens, rounded
    /// up and clamped to at least 1.
    pub millis: u64,
}

impl std::fmt::Display for RetryAfter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} class shed; retry after {} ms", self.class, self.millis)
    }
}

impl std::error::Error for RetryAfter {}

/// Refill rate and burst capacity of one class's bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketConfig {
    /// Sustained admission rate in tokens (requests or mutations) per
    /// second. Zero means the class is entirely shed.
    pub rate_per_sec: f64,
    /// Maximum tokens the bucket holds (burst size); clamped to ≥ 1
    /// when the rate is nonzero.
    pub burst: f64,
}

impl BucketConfig {
    /// A bucket admitting `rate_per_sec` sustained with `burst` slack.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        Self { rate_per_sec, burst }
    }

    /// Parses the `--admit-*` CLI syntax `RATE[:BURST]` (burst defaults
    /// to one second of rate).
    pub fn parse(s: &str) -> Option<Self> {
        let (rate, burst) = match s.split_once(':') {
            Some((r, b)) => (r.parse::<f64>().ok()?, b.parse::<f64>().ok()?),
            None => {
                let r = s.parse::<f64>().ok()?;
                (r, r)
            }
        };
        (rate.is_finite() && rate >= 0.0 && burst.is_finite() && burst >= 0.0)
            .then_some(Self::new(rate, burst))
    }
}

/// Per-class bucket configuration for the whole front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Interactive-class bucket (never tightened by degradation).
    pub interactive: BucketConfig,
    /// Bulk-class bucket.
    pub bulk: BucketConfig,
    /// Best-effort-class bucket.
    pub best_effort: BucketConfig,
}

impl AdmissionConfig {
    /// The bucket configured for `class`.
    pub fn bucket(&self, class: ClientClass) -> BucketConfig {
        match class {
            ClientClass::Interactive => self.interactive,
            ClientClass::Bulk => self.bulk,
            ClientClass::BestEffort => self.best_effort,
        }
    }
}

impl Default for AdmissionConfig {
    /// Generous defaults: a front door with no `--admit-*` flags admits
    /// 10k interactive, 1k bulk, and 100 best-effort tokens per second.
    fn default() -> Self {
        Self {
            interactive: BucketConfig::new(10_000.0, 10_000.0),
            bulk: BucketConfig::new(1_000.0, 1_000.0),
            best_effort: BucketConfig::new(100.0, 100.0),
        }
    }
}

/// Deterministic token bucket: state advances only when fed a
/// monotonically increasing nanosecond clock.
#[derive(Debug)]
pub struct TokenBucket {
    config: BucketConfig,
    /// Tokens available as of `last_nanos`.
    tokens: f64,
    /// Clock value of the last refill.
    last_nanos: u64,
}

impl TokenBucket {
    /// A full bucket at clock zero.
    pub fn new(config: BucketConfig) -> Self {
        Self {
            config,
            tokens: config.burst.max(if config.rate_per_sec > 0.0 { 1.0 } else { 0.0 }),
            last_nanos: 0,
        }
    }

    /// Burst capacity, honouring the ≥ 1 clamp for nonzero rates.
    fn capacity(&self) -> f64 {
        if self.config.rate_per_sec > 0.0 {
            self.config.burst.max(1.0)
        } else {
            self.config.burst
        }
    }

    /// Advances the refill to `now_nanos` (monotonic; earlier clocks
    /// are ignored rather than draining tokens).
    fn refill(&mut self, now_nanos: u64, rate_scale: f64) {
        if now_nanos <= self.last_nanos {
            return;
        }
        let dt = (now_nanos - self.last_nanos) as f64 / 1e9;
        self.tokens =
            (self.tokens + dt * self.config.rate_per_sec * rate_scale).min(self.capacity());
        self.last_nanos = now_nanos;
    }

    /// Tries to take `cost` tokens at clock `now_nanos`; on failure
    /// returns the milliseconds until the deficit refills (at the given
    /// rate scale), `u64::MAX` when it never will.
    pub fn try_acquire_at(
        &mut self,
        cost: f64,
        now_nanos: u64,
        rate_scale: f64,
    ) -> Result<(), u64> {
        self.refill(now_nanos, rate_scale);
        if cost <= self.tokens {
            self.tokens -= cost;
            return Ok(());
        }
        let rate = self.config.rate_per_sec * rate_scale;
        if rate <= 0.0 || cost > self.capacity() {
            // Never admissible at this rate/burst: signal "much later"
            // rather than lying with a small wait.
            return Err(u64::MAX);
        }
        let deficit = cost - self.tokens;
        let millis = (deficit / rate * 1e3).ceil() as u64;
        Err(millis.max(1))
    }

    /// Tokens currently available (after a refill to `now_nanos`).
    pub fn available_at(&mut self, now_nanos: u64, rate_scale: f64) -> f64 {
        self.refill(now_nanos, rate_scale);
        self.tokens
    }
}

/// Monotonic per-class admission tallies; `admitted + shed` equals the
/// submissions the controller has seen for that class (the invariant
/// the admission proptests pin down).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed with a [`RetryAfter`].
    pub shed: u64,
}

/// Point-in-time copy of the controller's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Per-class tallies, indexed by [`ClientClass::index`].
    pub classes: [ClassStats; 3],
    /// Degrade level currently tightening the non-interactive classes.
    pub degrade: u8,
}

/// One mutex-guarded bucket plus its tallies.
#[derive(Debug)]
struct ClassState {
    bucket: TokenBucket,
    stats: ClassStats,
}

/// The front door's admission authority: one token bucket per
/// [`ClientClass`], degradation-aware rate tightening, and per-class
/// accounting. It writes no telemetry: the front door records each
/// decision in its session's metrics and span tree.
#[derive(Debug)]
pub struct AdmissionController {
    classes: [Mutex<ClassState>; 3],
    /// Epoch for the wall-clock `admit` wrapper.
    epoch: Instant,
    /// Degrade level last observed from the session (0/1/2), stored in
    /// a mutex-free cell via the interactive-class lock would be
    /// overkill; a dedicated mutex keeps the ordering story trivial.
    degrade: Mutex<DegradeLevel>,
}

impl AdmissionController {
    /// A controller with full buckets.
    pub fn new(config: AdmissionConfig) -> Self {
        let state = |class: ClientClass| {
            Mutex::new(ClassState {
                bucket: TokenBucket::new(config.bucket(class)),
                stats: ClassStats::default(),
            })
        };
        Self {
            classes: [
                state(ClientClass::Interactive),
                state(ClientClass::Bulk),
                state(ClientClass::BestEffort),
            ],
            epoch: Instant::now(),
            degrade: Mutex::new(DegradeLevel::None),
        }
    }

    fn lock_class(&self, class: ClientClass) -> std::sync::MutexGuard<'_, ClassState> {
        let [interactive, bulk, best_effort] = &self.classes;
        let slot = match class {
            ClientClass::Interactive => interactive,
            ClientClass::Bulk => bulk,
            ClientClass::BestEffort => best_effort,
        };
        match slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Rate multiplier for `class` at the current degrade level: the
    /// interactive class is never tightened; bulk and best-effort lose
    /// half their refill rate per ladder rung.
    fn rate_scale(&self, class: ClientClass) -> f64 {
        if class == ClientClass::Interactive {
            return 1.0;
        }
        let level = match self.degrade.lock() {
            Ok(g) => *g,
            Err(poisoned) => *poisoned.into_inner(),
        };
        match level {
            DegradeLevel::None => 1.0,
            DegradeLevel::PrunedStore => 0.5,
            DegradeLevel::DroppedStore => 0.25,
        }
    }

    /// Admission decision at an explicit clock (deterministic; tests).
    ///
    /// `_trace` is unused — the front door records the decision's span
    /// from the result — and stays only because `benches/spine` calls
    /// this four-argument form.
    ///
    /// # Errors
    ///
    /// [`RetryAfter`] when the class's bucket cannot cover `cost`.
    pub fn admit_at(
        &self,
        class: ClientClass,
        cost: f64,
        now_nanos: u64,
        _trace: telemetry::TraceCtx,
    ) -> Result<(), RetryAfter> {
        let scale = self.rate_scale(class);
        let mut state = self.lock_class(class);
        match state.bucket.try_acquire_at(cost, now_nanos, scale) {
            Ok(()) => {
                state.stats.admitted += 1;
                Ok(())
            }
            Err(millis) => {
                state.stats.shed += 1;
                Err(RetryAfter { class, millis })
            }
        }
    }

    /// Admission decision on the wall clock.
    ///
    /// # Errors
    ///
    /// [`RetryAfter`] when the class's bucket cannot cover `cost`.
    pub fn admit(&self, class: ClientClass, cost: f64) -> Result<(), RetryAfter> {
        let now = telemetry::saturating_nanos(self.epoch.elapsed());
        self.admit_at(class, cost, now, telemetry::TraceCtx::disabled())
    }

    /// Sheds one `class` request without consulting its bucket (the
    /// front door's injected admission fault), accounting it like any
    /// other shed.
    pub(crate) fn refuse(&self, class: ClientClass) -> RetryAfter {
        self.lock_class(class).stats.shed += 1;
        RetryAfter { class, millis: 1 }
    }

    /// Feeds the session's degrade level into the rate tightening (the
    /// session worker calls this after every applied batch).
    pub fn observe_degrade(&self, level: DegradeLevel) {
        match self.degrade.lock() {
            Ok(mut g) => *g = level,
            Err(poisoned) => *poisoned.into_inner() = level,
        }
    }

    /// Current per-class accounting.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let degrade = match self.degrade.lock() {
            Ok(g) => g.index(),
            Err(poisoned) => poisoned.into_inner().index(),
        };
        let mut classes = [ClassStats::default(); 3];
        for (slot, class) in classes.iter_mut().zip(CLASSES) {
            *slot = self.lock_class(class).stats;
        }
        AdmissionSnapshot { classes, degrade }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rate: f64, burst: f64) -> AdmissionConfig {
        AdmissionConfig {
            interactive: BucketConfig::new(rate, burst),
            bulk: BucketConfig::new(rate, burst),
            best_effort: BucketConfig::new(rate, burst),
        }
    }

    #[test]
    fn bucket_admits_burst_then_sheds() {
        let mut b = TokenBucket::new(BucketConfig::new(10.0, 3.0));
        assert!(b.try_acquire_at(1.0, 0, 1.0).is_ok());
        assert!(b.try_acquire_at(1.0, 0, 1.0).is_ok());
        assert!(b.try_acquire_at(1.0, 0, 1.0).is_ok());
        let wait = b.try_acquire_at(1.0, 0, 1.0).unwrap_err();
        // 1 token at 10/s = 100 ms away.
        assert_eq!(wait, 100);
    }

    #[test]
    fn bucket_refills_at_rate() {
        let mut b = TokenBucket::new(BucketConfig::new(10.0, 1.0));
        assert!(b.try_acquire_at(1.0, 0, 1.0).is_ok());
        assert!(b.try_acquire_at(1.0, 0, 1.0).is_err());
        // 100 ms later exactly one token exists again.
        assert!(b.try_acquire_at(1.0, 100_000_000, 1.0).is_ok());
        assert!(b.try_acquire_at(1.0, 100_000_000, 1.0).is_err());
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(BucketConfig::new(1_000.0, 2.0));
        // A long idle period must not bank more than the burst.
        assert!((b.available_at(60_000_000_000, 1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_class_is_always_shed() {
        let mut b = TokenBucket::new(BucketConfig::new(0.0, 0.0));
        assert_eq!(b.try_acquire_at(1.0, 0, 1.0), Err(u64::MAX));
        assert_eq!(b.try_acquire_at(1.0, 5_000_000_000, 1.0), Err(u64::MAX));
    }

    #[test]
    fn oversized_cost_reports_never() {
        let mut b = TokenBucket::new(BucketConfig::new(10.0, 4.0));
        assert_eq!(b.try_acquire_at(5.0, 0, 1.0), Err(u64::MAX));
    }

    #[test]
    fn clock_going_backwards_does_not_drain() {
        let mut b = TokenBucket::new(BucketConfig::new(10.0, 1.0));
        assert!(b.try_acquire_at(1.0, 1_000_000_000, 1.0).is_ok());
        // An earlier clock is ignored; the bucket neither drains nor
        // double-refills.
        let avail = b.available_at(500_000_000, 1.0);
        assert!(avail < 1.0, "no token yet: {avail}");
    }

    #[test]
    fn controller_accounts_admit_and_shed() {
        let ctl = AdmissionController::new(config(10.0, 2.0));
        assert!(ctl.admit_at(ClientClass::Bulk, 1.0, 0, telemetry::TraceCtx::disabled()).is_ok());
        assert!(ctl.admit_at(ClientClass::Bulk, 1.0, 0, telemetry::TraceCtx::disabled()).is_ok());
        let err = ctl.admit_at(ClientClass::Bulk, 1.0, 0, telemetry::TraceCtx::disabled()).unwrap_err();
        assert_eq!(err.class, ClientClass::Bulk);
        assert!(err.millis >= 1);
        let snap = ctl.snapshot();
        let bulk = snap.classes[ClientClass::Bulk.index()];
        assert_eq!((bulk.admitted, bulk.shed), (2, 1));
        let inter = snap.classes[ClientClass::Interactive.index()];
        assert_eq!((inter.admitted, inter.shed), (0, 0));
    }

    #[test]
    fn degradation_tightens_noninteractive_only() {
        let ctl = AdmissionController::new(config(10.0, 1.0));
        // Drain both buckets at t=0.
        assert!(ctl.admit_at(ClientClass::Bulk, 1.0, 0, telemetry::TraceCtx::disabled()).is_ok());
        assert!(ctl.admit_at(ClientClass::Interactive, 1.0, 0, telemetry::TraceCtx::disabled()).is_ok());
        ctl.observe_degrade(DegradeLevel::DroppedStore);
        // 100 ms refills a full token at rate 10, but bulk now runs at
        // quarter rate — only interactive is whole again.
        assert!(ctl.admit_at(ClientClass::Interactive, 1.0, 100_000_000, telemetry::TraceCtx::disabled()).is_ok());
        let err = ctl.admit_at(ClientClass::Bulk, 1.0, 100_000_000, telemetry::TraceCtx::disabled()).unwrap_err();
        // 0.25 tokens banked; 0.75 deficit at 2.5/s = 300 ms.
        assert_eq!(err.millis, 300);
        // Recovery restores the full rate.
        ctl.observe_degrade(DegradeLevel::None);
        assert!(ctl.admit_at(ClientClass::Bulk, 1.0, 200_000_000, telemetry::TraceCtx::disabled()).is_ok());
        assert_eq!(ctl.snapshot().degrade, 0);
    }

    #[test]
    fn class_and_bucket_parsing() {
        assert_eq!(ClientClass::parse("Interactive"), Some(ClientClass::Interactive));
        assert_eq!(ClientClass::parse(" bulk "), Some(ClientClass::Bulk));
        assert_eq!(ClientClass::parse("best_effort"), Some(ClientClass::BestEffort));
        assert_eq!(ClientClass::parse("platinum"), None);
        assert_eq!(BucketConfig::parse("100"), Some(BucketConfig::new(100.0, 100.0)));
        assert_eq!(BucketConfig::parse("5:40"), Some(BucketConfig::new(5.0, 40.0)));
        assert_eq!(BucketConfig::parse("-1"), None);
        assert_eq!(BucketConfig::parse("nope"), None);
    }
}
