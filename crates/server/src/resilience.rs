//! Serve-path resilience state: per-relation circuit breakers and the
//! corrupt-page quarantine set.
//!
//! Both structures are small shared registries consulted on every
//! resilient query (see `CubeService::query_with_options`):
//!
//! * [`RelationBreakers`] — classic closed → open → half-open circuit
//!   breakers keyed by relation name. `N` *consecutive* I/O failures
//!   against a relation trip its breaker; while open, queries fail fast
//!   with a typed `Degraded` error instead of hammering a sick disk.
//!   After a cooldown the breaker admits probe traffic (half-open) and
//!   one success closes it again.
//! * [`QuarantineSet`] — `(relation, page)` pairs that failed checksum
//!   or sanity verification. Queries consult it *before* fetching (via
//!   the [`PageQuarantine`] trait), turning repeat reads of a known-bad
//!   page into immediate typed failures with zero I/O. Pages leave
//!   quarantine only through the repair hook, which re-verifies the page
//!   from disk.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cure_query::PageQuarantine;
use parking_lot::Mutex;

/// Tunables for the serve-path resilience layer.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Consecutive I/O failures on one relation that trip its breaker.
    /// `0` disables circuit breaking entirely.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before admitting a
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// How long a *closed* breaker may sit untouched before it becomes
    /// prunable. Live ingest mints a fresh relation name per epoch
    /// (`live_e<N>_…`), so without pruning the registry grows one entry
    /// per epoch forever.
    pub breaker_idle_ttl: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        // 8 consecutive failures is comfortably past the storage layer's
        // own bounded retries (transient blips never reach 8); 250 ms
        // keeps recovery probes frequent enough for interactive serving.
        // 60 s of idleness comfortably outlives any live epoch turnover.
        ResilienceConfig {
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            breaker_idle_ttl: Duration::from_secs(60),
        }
    }
}

/// Breaker states, reported by [`RelationBreakers::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    Closed,
    /// Tripped: traffic rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe traffic admitted; one success closes,
    /// one I/O failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for stats output.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    /// When an open breaker starts admitting probes.
    open_until: Instant,
    consecutive_failures: u32,
    /// Last admit/success/failure touching this breaker, for idle
    /// pruning.
    last_touched: Instant,
    /// A half-open probe is outstanding: further traffic is rejected
    /// until the probe resolves (or its TTL — one cooldown — elapses, in
    /// case the probe's caller never reported back).
    probe_inflight: bool,
    /// When the outstanding probe was admitted.
    probe_started: Instant,
}

impl Breaker {
    fn new() -> Self {
        let now = Instant::now();
        Breaker {
            state: BreakerState::Closed,
            open_until: now,
            consecutive_failures: 0,
            last_touched: now,
            probe_inflight: false,
            probe_started: now,
        }
    }
}

/// Registry size above which mutating calls opportunistically prune
/// closed, idle entries. Small enough that the map stays bounded under
/// epoch churn, large enough that steady-state registries (a handful of
/// relations) never pay the scan.
const PRUNE_ABOVE: usize = 16;

/// Per-relation circuit breakers (see module docs).
#[derive(Debug)]
pub struct RelationBreakers {
    cfg: ResilienceConfig,
    breakers: Mutex<HashMap<String, Breaker>>,
}

impl RelationBreakers {
    /// An empty registry (every relation starts closed).
    pub fn new(cfg: ResilienceConfig) -> Self {
        RelationBreakers { cfg, breakers: Mutex::new(HashMap::new()) }
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> ResilienceConfig {
        self.cfg
    }

    /// Whether a query against `relation` may proceed. An open breaker
    /// whose cooldown has elapsed transitions to half-open and admits
    /// the caller as its **single** probe; other callers keep getting
    /// rejected until the probe resolves (success, failure, or timeout)
    /// or one further cooldown passes without a verdict. Admitting the
    /// whole queue at half-open was harmless in-process, but against a
    /// merely *slow* socket it let a burst of probes all time out and
    /// flap the breaker open again.
    pub fn admit(&self, relation: &str) -> bool {
        if self.cfg.breaker_threshold == 0 {
            return true;
        }
        let mut map = self.breakers.lock();
        Self::prune_locked(&mut map, self.cfg.breaker_idle_ttl);
        let Some(b) = map.get_mut(relation) else {
            // First sight: the only call that builds an owned key. A new
            // breaker starts closed, so it admits.
            map.insert(relation.to_string(), Breaker::new());
            return true;
        };
        let now = Instant::now();
        b.last_touched = now;
        match b.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if b.probe_inflight
                    && now.duration_since(b.probe_started) < self.cfg.breaker_cooldown
                {
                    false
                } else {
                    b.probe_inflight = true;
                    b.probe_started = now;
                    true
                }
            }
            BreakerState::Open => {
                if now >= b.open_until {
                    b.state = BreakerState::HalfOpen;
                    b.probe_inflight = true;
                    b.probe_started = now;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful query against `relation`: resets the failure
    /// streak and closes a half-open breaker.
    pub fn record_success(&self, relation: &str) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let mut map = self.breakers.lock();
        if let Some(b) = map.get_mut(relation) {
            b.consecutive_failures = 0;
            b.last_touched = Instant::now();
            b.probe_inflight = false;
            if b.state == BreakerState::HalfOpen {
                b.state = BreakerState::Closed;
            }
        }
    }

    /// Record a *timeout* against `relation`. A timeout means slow, not
    /// dead: it neither advances the consecutive-failure streak (a slow
    /// socket must not trip the breaker the way a refused connection
    /// does) nor re-opens a half-open breaker — it only resolves an
    /// outstanding probe so the next caller may probe again.
    pub fn record_timeout(&self, relation: &str) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let mut map = self.breakers.lock();
        if let Some(b) = map.get_mut(relation) {
            b.last_touched = Instant::now();
            b.probe_inflight = false;
        }
    }

    /// Record an I/O failure against `relation`. Returns `true` when
    /// this failure *tripped* the breaker (a closed → open or half-open
    /// → open transition), so the caller can count trips.
    pub fn record_io_failure(&self, relation: &str) -> bool {
        if self.cfg.breaker_threshold == 0 {
            return false;
        }
        let mut map = self.breakers.lock();
        Self::prune_locked(&mut map, self.cfg.breaker_idle_ttl);
        let b = map.entry(relation.to_string()).or_insert_with(Breaker::new);
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        b.last_touched = Instant::now();
        let trip = match b.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive_failures >= self.cfg.breaker_threshold,
            BreakerState::Open => false,
        };
        if trip {
            b.state = BreakerState::Open;
            b.open_until = Instant::now() + self.cfg.breaker_cooldown;
        }
        b.probe_inflight = false;
        trip
    }

    /// Current state of `relation`'s breaker (an untracked relation is
    /// closed). Reported without mutating: an elapsed cooldown still
    /// reads `Open` until traffic actually probes it.
    pub fn state(&self, relation: &str) -> BreakerState {
        self.breakers.lock().get(relation).map_or(BreakerState::Closed, |b| b.state)
    }

    /// Number of tracked breakers (bounded under epoch churn — see
    /// [`prune_idle`](Self::prune_idle)).
    pub fn len(&self) -> usize {
        self.breakers.lock().len()
    }

    /// Whether no breakers are tracked.
    pub fn is_empty(&self) -> bool {
        self.breakers.lock().is_empty()
    }

    /// Drop every closed breaker that has been idle for at least the
    /// configured TTL; returns how many were removed. Open and half-open
    /// breakers are never pruned — they carry the state the resilience
    /// policy exists for. Mutating calls run this opportunistically once
    /// the registry outgrows a small floor, so relations minted per live
    /// epoch (`live_e<N>_…`) cannot grow the map without bound.
    pub fn prune_idle(&self) -> usize {
        let mut map = self.breakers.lock();
        let before = map.len();
        map.retain(|_, b| {
            b.state != BreakerState::Closed || b.last_touched.elapsed() < self.cfg.breaker_idle_ttl
        });
        before - map.len()
    }

    /// The opportunistic in-lock variant of [`prune_idle`](Self::prune_idle),
    /// gated so small steady-state registries never pay the scan.
    fn prune_locked(map: &mut HashMap<String, Breaker>, ttl: Duration) {
        if map.len() > PRUNE_ABOVE {
            map.retain(|_, b| b.state != BreakerState::Closed || b.last_touched.elapsed() < ttl);
        }
    }
}

/// The corrupt-page quarantine: `(relation, page)` pairs that failed
/// verification, consulted before every guarded fetch.
///
/// The clean path — nothing quarantined, as in normal serving — costs
/// one atomic load: no lock, no allocation. Once a page is quarantined,
/// lookups take the lock and hash the borrowed relation name, so an
/// incident never puts an allocation on every fetched row. A reader
/// racing an `insert` may miss the new entry, exactly as when it won the
/// lock first; anything ordered after `insert` returns sees the page.
#[derive(Debug, Default)]
pub struct QuarantineSet {
    /// Quarantined pages, keyed per relation so lookups borrow `&str`.
    pages: Mutex<HashMap<String, HashSet<u64>>>,
    /// Number of pages in `pages`, stored under its lock (Release) on
    /// every insert and remove.
    len: AtomicUsize,
}

impl QuarantineSet {
    /// An empty quarantine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a page; returns `false` if it was already quarantined.
    pub fn insert(&self, relation: &str, page: u64) -> bool {
        let mut pages = self.pages.lock();
        let added = match pages.get_mut(relation) {
            Some(set) => set.insert(page),
            None => {
                pages.insert(relation.to_string(), HashSet::from([page]));
                true
            }
        };
        if added {
            self.len.fetch_add(1, Ordering::Release);
        }
        added
    }

    /// Release a page (after successful repair); returns whether it was
    /// present.
    pub fn remove(&self, relation: &str, page: u64) -> bool {
        let mut pages = self.pages.lock();
        let Some(set) = pages.get_mut(relation) else {
            return false;
        };
        if !set.remove(&page) {
            return false;
        }
        if set.is_empty() {
            pages.remove(relation);
        }
        self.len.fetch_sub(1, Ordering::Release);
        true
    }

    /// Whether a page is currently quarantined.
    pub fn contains(&self, relation: &str, page: u64) -> bool {
        if self.len.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.pages.lock().get(relation).is_some_and(|set| set.contains(&page))
    }

    /// Number of quarantined pages.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the quarantine is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the quarantined pages (sorted, for stable output).
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut v: Vec<_> = self
            .pages
            .lock()
            .iter()
            .flat_map(|(rel, set)| set.iter().map(move |&page| (rel.clone(), page)))
            .collect();
        v.sort();
        v
    }
}

impl PageQuarantine for QuarantineSet {
    fn is_quarantined(&self, relation: &str, page: u64) -> bool {
        self.contains(relation, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> ResilienceConfig {
        ResilienceConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(20),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let b = RelationBreakers::new(fast_cfg());
        assert!(!b.record_io_failure("fact"));
        assert!(!b.record_io_failure("fact"));
        // A success in between resets the streak.
        b.record_success("fact");
        assert!(!b.record_io_failure("fact"));
        assert!(!b.record_io_failure("fact"));
        assert!(b.record_io_failure("fact"), "third consecutive failure trips");
        assert_eq!(b.state("fact"), BreakerState::Open);
        assert!(!b.admit("fact"), "open breaker rejects");
        // Another relation is unaffected.
        assert!(b.admit("aggregates"));
        assert_eq!(b.state("aggregates"), BreakerState::Closed);
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let b = RelationBreakers::new(fast_cfg());
        for _ in 0..3 {
            b.record_io_failure("fact");
        }
        assert!(!b.admit("fact"));
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit("fact"), "cooldown elapsed: probe admitted");
        assert_eq!(b.state("fact"), BreakerState::HalfOpen);
        // A failed probe re-opens at once (single failure, not N).
        assert!(b.record_io_failure("fact"));
        assert_eq!(b.state("fact"), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit("fact"));
        b.record_success("fact");
        assert_eq!(b.state("fact"), BreakerState::Closed);
        assert!(b.admit("fact"));
    }

    #[test]
    fn zero_threshold_disables_breaking() {
        let b = RelationBreakers::new(ResilienceConfig {
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(1),
            ..ResilienceConfig::default()
        });
        for _ in 0..100 {
            assert!(!b.record_io_failure("fact"));
        }
        assert!(b.admit("fact"));
        assert_eq!(b.state("fact"), BreakerState::Closed);
    }

    #[test]
    fn epoch_churn_keeps_the_registry_bounded() {
        // The live-ingest pattern: every applied delta mints a fresh
        // relation name (`live_e<N>_facts`), queries it for a while,
        // then abandons it. With an immediate idle TTL the registry must
        // stay bounded no matter how many epochs pass.
        let b = RelationBreakers::new(ResilienceConfig {
            breaker_idle_ttl: Duration::ZERO,
            ..ResilienceConfig::default()
        });
        for epoch in 0..1000 {
            let rel = format!("live_e{epoch}_facts");
            assert!(b.admit(&rel));
            b.record_success(&rel);
        }
        assert!(
            b.len() <= PRUNE_ABOVE + 1,
            "breaker registry grew without bound: {} entries after 1000 epochs",
            b.len()
        );
    }

    #[test]
    fn prune_keeps_open_and_recent_breakers() {
        let b = RelationBreakers::new(ResilienceConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            breaker_idle_ttl: Duration::ZERO,
        });
        // Trip one relation open, touch one closed relation.
        assert!(b.record_io_failure("live_e1_facts"));
        assert!(b.admit("live_e2_facts"));
        assert_eq!(b.len(), 2);
        // With a zero TTL the closed entry is prunable; the open one
        // must survive — it carries the fail-fast state.
        let pruned = b.prune_idle();
        assert_eq!(pruned, 1);
        assert_eq!(b.state("live_e1_facts"), BreakerState::Open);
        assert!(!b.admit("live_e1_facts"), "open breaker still rejects after pruning");
    }

    #[test]
    fn idle_ttl_preserves_active_entries() {
        // A generous TTL never prunes entries that are in active use.
        let b = RelationBreakers::new(ResilienceConfig {
            breaker_idle_ttl: Duration::from_secs(3600),
            ..ResilienceConfig::default()
        });
        for epoch in 0..100 {
            assert!(b.admit(&format!("live_e{epoch}_facts")));
        }
        assert_eq!(b.len(), 100, "entries within the TTL must survive");
        assert_eq!(b.prune_idle(), 0);
    }

    #[test]
    fn timeouts_do_not_flap_the_breaker() {
        // Satellite regression: a slow responder (timeouts) must never
        // trip a closed breaker, no matter how many in a row …
        let b = RelationBreakers::new(fast_cfg());
        for _ in 0..50 {
            b.record_timeout("fact");
        }
        assert_eq!(b.state("fact"), BreakerState::Closed);
        assert!(b.admit("fact"));
        // … and a slow probe must not re-open a half-open breaker the
        // way a hard failure does.
        for _ in 0..3 {
            b.record_io_failure("fact");
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit("fact"), "probe admitted after cooldown");
        assert_eq!(b.state("fact"), BreakerState::HalfOpen);
        b.record_timeout("fact");
        assert_eq!(b.state("fact"), BreakerState::HalfOpen, "slow probe keeps half-open");
        // The timeout resolved the probe, so the next caller probes at
        // once instead of waiting out the probe TTL.
        assert!(b.admit("fact"));
        b.record_success("fact");
        assert_eq!(b.state("fact"), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_a_single_probe() {
        let b = RelationBreakers::new(fast_cfg());
        for _ in 0..3 {
            b.record_io_failure("fact");
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit("fact"), "first caller becomes the probe");
        // While the probe is outstanding, the rest of the burst is
        // rejected instead of stampeding a maybe-slow backend.
        assert!(!b.admit("fact"));
        assert!(!b.admit("fact"));
        assert_eq!(b.state("fact"), BreakerState::HalfOpen);
        // The probe resolving (success) closes and re-admits everyone.
        b.record_success("fact");
        assert_eq!(b.state("fact"), BreakerState::Closed);
        assert!(b.admit("fact"));
    }

    #[test]
    fn lost_probe_expires_after_one_cooldown() {
        // A probe whose caller dies without reporting back must not
        // wedge the breaker half-open forever.
        let b = RelationBreakers::new(fast_cfg());
        for _ in 0..3 {
            b.record_io_failure("fact");
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit("fact"));
        assert!(!b.admit("fact"), "probe outstanding");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit("fact"), "probe TTL elapsed: a new probe is admitted");
    }

    #[test]
    fn quarantine_round_trips() {
        let q = QuarantineSet::new();
        assert!(q.is_empty());
        assert!(q.insert("fact", 3));
        assert!(!q.insert("fact", 3), "double insert reported");
        assert!(q.insert("fact", 4));
        assert!(q.insert("agg", 3));
        assert_eq!(q.len(), 3);
        assert!(q.contains("fact", 3));
        assert!(!q.contains("fact", 5));
        assert!(q.is_quarantined("agg", 3));
        assert_eq!(q.entries(), vec![("agg".into(), 3), ("fact".into(), 3), ("fact".into(), 4)]);
        assert!(q.remove("fact", 3));
        assert!(!q.remove("fact", 3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn readers_see_every_insert_they_are_ordered_after() {
        use std::sync::atomic::{AtomicBool, AtomicU64};

        // Readers spin on `contains` while one writer quarantines pages
        // (alternating relations) and then releases them all. A reader
        // that observes the writer's publication of page `r` must see
        // `r` quarantined; once the writer publishes the last removal,
        // the set must read empty everywhere. Removals start only after
        // every reader has checked every insert.
        const READERS: usize = 2;
        const PAGES: u64 = 200;
        let rel = |page: u64| if page.is_multiple_of(2) { "fact" } else { "aggregates" };
        let q = QuarantineSet::new();
        let published = AtomicU64::new(0);
        let caught_up = AtomicUsize::new(0);
        let cleared = AtomicBool::new(false);
        // The writer never panics inside the scope (a reader would spin
        // forever), and stops waiting on a reader that ended early (it
        // panicked; the scope re-raises that).
        let (inserted, removed) = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = 0;
                        while seen < PAGES {
                            let upto = published.load(Ordering::Acquire);
                            for page in seen..upto {
                                assert!(q.contains(rel(page), page), "page {page} not seen");
                                assert!(q.is_quarantined(rel(page), page));
                            }
                            // Racing the next insert: either answer is fine.
                            std::hint::black_box(q.contains(rel(upto), upto));
                            seen = upto;
                            std::thread::yield_now();
                        }
                        caught_up.fetch_add(1, Ordering::Release);
                        while !cleared.load(Ordering::Acquire) {
                            // Racing the removals.
                            std::hint::black_box(q.contains("fact", 0));
                            std::thread::yield_now();
                        }
                        assert_eq!(q.len(), 0);
                        assert!((0..PAGES).all(|page| !q.contains(rel(page), page)));
                    })
                })
                .collect();
            let inserted = (0..PAGES)
                .filter(|&page| {
                    let added = q.insert(rel(page), page);
                    published.store(page + 1, Ordering::Release);
                    added
                })
                .count();
            while caught_up.load(Ordering::Acquire) < READERS
                && !readers.iter().any(|r| r.is_finished())
            {
                std::thread::yield_now();
            }
            let removed = (0..PAGES).filter(|&page| q.remove(rel(page), page)).count();
            cleared.store(true, Ordering::Release);
            (inserted, removed)
        });
        assert_eq!((inserted, removed), (PAGES as usize, PAGES as usize));
        assert!(q.is_empty());
        assert!(q.entries().is_empty());
        assert!(!q.contains("fact", 0));
    }
}
