//! Per-client state eviction: TTL and LRU-capacity bounds for detector
//! state tables.
//!
//! Every stock detector keeps evidence *per client* (address + user-agent
//! fingerprint): Sentinel's session counters and violator cache, Arcane's
//! sessionizer, the rate limiter's sliding windows, the honeytrap's caught
//! set. On a long-running stream those tables grow with the number of
//! distinct clients ever seen — unbounded on real traffic. This module
//! provides the bounded replacement, [`ClientStateTable`]: a hash map with
//! an intrusive LRU list and two eviction policies configured through
//! [`EvictionConfig`]:
//!
//! * **TTL** — a client idle longer than `ttl_secs` (measured in *log
//!   time*, the entry timestamps) is dropped. This is the
//!   session-timeout semantics of the web-robot-detection literature: an
//!   evicted client that returns is a fresh session. With a TTL at least
//!   as long as a detector's own session-idle timeout, eviction is
//!   verdict-preserving for session-scoped state (the detector would have
//!   restarted the session anyway).
//! * **LRU capacity** — the table never holds more than `max_clients`
//!   entries; inserting beyond that evicts the least-recently-seen
//!   client. This is the hard memory bound; it can evict a still-active
//!   client, so it trades recall on very-long-horizon evidence (e.g.
//!   Sentinel's violator cache) for bounded memory.
//!
//! Eviction is **off by default** ([`EvictionConfig::DISABLED`]), in
//! which case the table behaves exactly like the `HashMap` it replaces
//! and detector output is bit-identical to the unbounded implementation.
//!
//! Expiry is *lazy and access-driven*: entries are only reaped when the
//! table is touched, from the least-recent end of the LRU list. Because
//! detectors feed entries in timestamp order, recency order equals
//! idle-time order and the tail scan removes exactly the expired clients.

use std::collections::HashMap;
use std::hash::Hash;

use crate::session::ClientKey;
use crate::tenant::TenantClientKey;

/// Eviction policy for a [`ClientStateTable`]. Both knobs are optional
/// and independent; the default ([`DISABLED`](Self::DISABLED)) keeps
/// every client forever, exactly like a plain map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionConfig {
    /// Drop a client after this many seconds of inactivity (log time).
    /// Negative values are treated as 0 (expire on the first idle
    /// second — every touch reaps all other clients' state). `None`
    /// disables TTL eviction.
    pub ttl_secs: Option<i64>,
    /// Hard cap on tracked clients; inserting past it evicts the
    /// least-recently-seen client. Values below 1 are treated as 1.
    /// `None` disables capacity eviction.
    pub max_clients: Option<usize>,
}

impl EvictionConfig {
    /// No eviction: tables grow without bound (the pre-eviction
    /// behaviour, and the default).
    pub const DISABLED: EvictionConfig = EvictionConfig {
        ttl_secs: None,
        max_clients: None,
    };

    /// TTL-only eviction.
    pub fn ttl(secs: i64) -> Self {
        EvictionConfig {
            ttl_secs: Some(secs),
            max_clients: None,
        }
    }

    /// Capacity-only (LRU) eviction.
    pub fn capacity(max_clients: usize) -> Self {
        EvictionConfig {
            ttl_secs: None,
            max_clients: Some(max_clients),
        }
    }

    /// Adds a TTL bound to this policy.
    pub fn with_ttl(mut self, secs: i64) -> Self {
        self.ttl_secs = Some(secs);
        self
    }

    /// Adds a capacity bound to this policy.
    pub fn with_capacity(mut self, max_clients: usize) -> Self {
        self.max_clients = Some(max_clients);
        self
    }

    /// Whether this policy never evicts anything.
    pub fn is_disabled(&self) -> bool {
        self.ttl_secs.is_none() && self.max_clients.is_none()
    }
}

/// A snapshot of a detector's client-state footprint, aggregated by
/// [`Detector::eviction_stats`](crate::Detector::eviction_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionStats {
    /// Occupancy of the detector's largest per-client table. This is the
    /// number the capacity bound caps: with `max_clients = C`, no single
    /// table — and therefore `live_clients` — ever exceeds `C`.
    pub live_clients: usize,
    /// Total clients evicted (TTL + capacity) across all tables since
    /// construction or reset.
    pub evicted_clients: u64,
}

impl EvictionStats {
    /// Combines snapshots from several tables or detectors: table
    /// occupancies take the max (the capacity bound is per table),
    /// eviction counts add.
    pub fn merge(self, other: EvictionStats) -> EvictionStats {
        EvictionStats {
            live_clients: self.live_clients.max(other.live_clients),
            evicted_clients: self.evicted_clients + other.evicted_clients,
        }
    }

    /// [`merge`](Self::merge)s any number of snapshots (zero yields the
    /// all-zero default).
    pub fn merge_all(stats: impl IntoIterator<Item = EvictionStats>) -> EvictionStats {
        stats
            .into_iter()
            .fold(EvictionStats::default(), |acc, s| acc.merge(s))
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Log-time of the client's most recent touch.
    last_seen: i64,
    prev: usize,
    next: usize,
}

/// The classic single-tenant table: keyed by bare client identity
/// (address + user-agent fingerprint). What every stock detector uses
/// for its own per-client state.
pub type ClientStateTable<V> = StateTable<ClientKey, V>;

/// A table shared across tenants: keyed by
/// [`TenantClientKey`], so the same client
/// identity observed by two tenants occupies two independent entries and
/// one tenant's churn can never evict another tenant's evidence through
/// key collision (the *capacity* of a shared table is still shared — a
/// multi-tenant deployment that needs hard isolation gives each tenant
/// its own tables, as the service plane does).
pub type TenantStateTable<V> = StateTable<TenantClientKey, V>;

/// A keyed state map with optional TTL and LRU-capacity eviction.
///
/// Semantically a `HashMap<K, V>` whose entries are touched with the
/// current log time; see the [module docs](self) for the eviction model.
/// All operations are O(1) (amortized): the LRU order lives in an
/// intrusive doubly-linked list threaded through a slot arena.
///
/// The key type is generic so the same machinery serves single-tenant
/// detectors ([`ClientStateTable`], keyed by [`ClientKey`]) and shared
/// multi-tenant state ([`TenantStateTable`], keyed by tenant-scoped
/// client identity).
///
/// ```
/// use divscrape_detect::{ClientStateTable, EvictionConfig};
/// use std::net::Ipv4Addr;
///
/// let mut table: ClientStateTable<u32> =
///     ClientStateTable::new(EvictionConfig::capacity(2));
/// let key = |n: u8| (Ipv4Addr::new(10, 0, 0, n), 0u64);
///
/// *table.upsert_with(key(1), 0, || 0).0 += 1;
/// *table.upsert_with(key(2), 1, || 0).0 += 1;
/// *table.upsert_with(key(3), 2, || 0).0 += 1; // evicts client 1 (LRU)
/// assert_eq!(table.len(), 2);
/// assert!(table.get(&key(1)).is_none());
/// assert_eq!(table.evicted_capacity(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StateTable<K, V> {
    cfg: EvictionConfig,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most-recently-seen slot.
    head: usize,
    /// Least-recently-seen slot — the eviction end.
    tail: usize,
    evicted_ttl: u64,
    evicted_capacity: u64,
}

impl<K: Eq + Hash + Clone, V> Default for StateTable<K, V> {
    fn default() -> Self {
        Self::new(EvictionConfig::DISABLED)
    }
}

impl<K: Eq + Hash + Clone, V> StateTable<K, V> {
    /// An empty table with the given eviction policy.
    pub fn new(cfg: EvictionConfig) -> Self {
        Self {
            cfg,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evicted_ttl: 0,
            evicted_capacity: 0,
        }
    }

    /// The active eviction policy.
    pub fn config(&self) -> EvictionConfig {
        self.cfg
    }

    /// Replaces the eviction policy. Existing entries are kept; the new
    /// bounds apply from the next touch.
    pub fn set_config(&mut self, cfg: EvictionConfig) {
        self.cfg = cfg;
    }

    /// Number of tracked clients.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Clients dropped by the TTL policy so far.
    pub fn evicted_ttl(&self) -> u64 {
        self.evicted_ttl
    }

    /// Clients dropped by the capacity policy so far.
    pub fn evicted_capacity(&self) -> u64 {
        self.evicted_capacity
    }

    /// Total clients evicted so far (TTL + capacity).
    pub fn evicted(&self) -> u64 {
        self.evicted_ttl + self.evicted_capacity
    }

    /// Occupancy and eviction counters as a mergeable snapshot.
    pub fn stats(&self) -> EvictionStats {
        EvictionStats {
            live_clients: self.len(),
            evicted_clients: self.evicted(),
        }
    }

    /// Non-touching read: the client's state, if tracked. Does not
    /// refresh recency and does not reap expired entries (an expired but
    /// not-yet-reaped entry is still returned); detector hot paths use
    /// the touching accessors instead.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slots[i].value)
    }

    /// Drops all entries and zeroes the eviction counters. The policy is
    /// kept.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.evicted_ttl = 0;
        self.evicted_capacity = 0;
    }

    /// Touches the client at log time `now`: reaps expired entries,
    /// returns the client's state (inserting `init()` if absent, or if
    /// the previous state was just reaped), refreshes its recency, and
    /// enforces the capacity bound. The second component is `true` when
    /// the client was already tracked (and not expired).
    pub fn upsert_with(&mut self, key: K, now: i64, init: impl FnOnce() -> V) -> (&mut V, bool) {
        self.expire(now);
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].last_seen = now;
            self.move_to_head(i);
            return (&mut self.slots[i].value, true);
        }
        let i = self.insert_slot(key, now, init());
        self.enforce_capacity();
        (&mut self.slots[i].value, false)
    }

    /// Touches the client at log time `now` only if it is tracked and
    /// unexpired: reaps expired entries, and on a hit refreshes the
    /// client's recency and returns its state. Never inserts.
    pub fn get_refresh(&mut self, key: &K, now: i64) -> Option<&mut V> {
        self.expire(now);
        let &i = self.map.get(key)?;
        self.slots[i].last_seen = now;
        self.move_to_head(i);
        Some(&mut self.slots[i].value)
    }

    /// Inserts or replaces the client's state at log time `now`,
    /// refreshing recency and enforcing the bounds.
    pub fn insert(&mut self, key: K, now: i64, value: V) {
        self.expire(now);
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.slots[i].last_seen = now;
            self.move_to_head(i);
            return;
        }
        self.insert_slot(key, now, value);
        self.enforce_capacity();
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, &i)| (k, &self.slots[i].value))
    }

    /// Reaps every entry idle longer than the TTL at log time `now`.
    /// Recency order equals last-seen order (streams are fed in
    /// timestamp order), so scanning from the tail visits exactly the
    /// expired entries.
    fn expire(&mut self, now: i64) {
        let Some(ttl) = self.cfg.ttl_secs else {
            return;
        };
        let ttl = ttl.max(0);
        while self.tail != NIL && now.saturating_sub(self.slots[self.tail].last_seen) > ttl {
            self.evict_tail();
            self.evicted_ttl += 1;
        }
    }

    /// Evicts least-recently-seen clients until the capacity bound
    /// holds.
    fn enforce_capacity(&mut self) {
        let Some(cap) = self.cfg.max_clients else {
            return;
        };
        let cap = cap.max(1);
        while self.map.len() > cap {
            self.evict_tail();
            self.evicted_capacity += 1;
        }
    }

    fn evict_tail(&mut self) {
        let i = self.tail;
        debug_assert_ne!(i, NIL);
        self.map.remove(&self.slots[i].key);
        self.unlink(i);
        self.free.push(i);
    }

    fn insert_slot(&mut self, key: K, now: i64, value: V) -> usize {
        let i = if let Some(i) = self.free.pop() {
            self.slots[i] = Slot {
                key: key.clone(),
                value,
                last_seen: now,
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                last_seen: now,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.link_head(i);
        i
    }

    fn link_head(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
    }

    fn move_to_head(&mut self, i: usize) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.link_head(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> ClientKey {
        (Ipv4Addr::new(10, 0, 0, n), 0)
    }

    #[test]
    fn disabled_config_never_evicts() {
        let mut t: ClientStateTable<u32> = ClientStateTable::new(EvictionConfig::DISABLED);
        for n in 0..200u8 {
            t.upsert_with(key(n), i64::from(n) * 10_000, || u32::from(n));
        }
        assert_eq!(t.len(), 200);
        assert_eq!(t.evicted(), 0);
        assert_eq!(t.get(&key(0)), Some(&0));
    }

    #[test]
    fn ttl_reaps_idle_clients_and_returning_clients_start_fresh() {
        let mut t: ClientStateTable<u32> = ClientStateTable::new(EvictionConfig::ttl(100));
        t.upsert_with(key(1), 0, || 7);
        // Within the TTL: still tracked, state preserved.
        let (v, existed) = t.upsert_with(key(1), 100, || 0);
        assert!(existed);
        assert_eq!(*v, 7);
        // Another client's touch past the TTL reaps client 1 lazily.
        t.upsert_with(key(2), 300, || 0);
        assert!(t.get(&key(1)).is_none());
        assert_eq!(t.evicted_ttl(), 1);
        // The returning client is fresh.
        let (v, existed) = t.upsert_with(key(1), 301, || 99);
        assert!(!existed);
        assert_eq!(*v, 99);
    }

    #[test]
    fn capacity_bound_holds_and_evicts_lru() {
        let mut t: ClientStateTable<u32> = ClientStateTable::new(EvictionConfig::capacity(3));
        for n in 1..=3u8 {
            t.upsert_with(key(n), i64::from(n), || u32::from(n));
        }
        // Touch client 1 so client 2 becomes the LRU.
        t.upsert_with(key(1), 4, || 0);
        t.upsert_with(key(4), 5, || 4);
        assert_eq!(t.len(), 3);
        assert!(t.get(&key(2)).is_none(), "LRU client should be evicted");
        assert!(t.get(&key(1)).is_some());
        assert_eq!(t.evicted_capacity(), 1);
        // The bound holds under sustained churn.
        for n in 10..250u64 {
            t.upsert_with((Ipv4Addr::new(10, 1, 0, (n % 250) as u8), n), 100, || 0);
            assert!(t.len() <= 3);
        }
    }

    #[test]
    fn get_refresh_touches_without_inserting() {
        let mut t: ClientStateTable<u32> = ClientStateTable::new(EvictionConfig::capacity(2));
        assert!(t.get_refresh(&key(1), 0).is_none());
        assert!(t.is_empty());
        t.upsert_with(key(1), 0, || 1);
        t.upsert_with(key(2), 1, || 2);
        // Refreshing client 1 protects it from the next capacity eviction.
        assert_eq!(t.get_refresh(&key(1), 2), Some(&mut 1));
        t.upsert_with(key(3), 3, || 3);
        assert!(t.get(&key(1)).is_some());
        assert!(t.get(&key(2)).is_none());
    }

    #[test]
    fn clear_resets_counters_and_reuses_slots() {
        let mut t: ClientStateTable<u32> = ClientStateTable::new(EvictionConfig::capacity(2));
        for n in 1..10u8 {
            t.upsert_with(key(n), i64::from(n), || 0);
        }
        assert!(t.evicted() > 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 0);
        t.upsert_with(key(1), 0, || 5);
        assert_eq!(t.get(&key(1)), Some(&5));
    }

    #[test]
    fn stats_merge_takes_max_occupancy_and_sums_evictions() {
        let a = EvictionStats {
            live_clients: 10,
            evicted_clients: 3,
        };
        let b = EvictionStats {
            live_clients: 7,
            evicted_clients: 5,
        };
        let m = a.merge(b);
        assert_eq!(m.live_clients, 10);
        assert_eq!(m.evicted_clients, 8);
    }

    #[test]
    fn combined_ttl_and_capacity_apply_together() {
        let cfg = EvictionConfig::ttl(50).with_capacity(2);
        assert!(!cfg.is_disabled());
        let mut t: ClientStateTable<u32> = ClientStateTable::new(cfg);
        t.upsert_with(key(1), 0, || 0);
        t.upsert_with(key(2), 10, || 0);
        t.upsert_with(key(3), 20, || 0); // capacity evicts 1
        assert_eq!(t.evicted_capacity(), 1);
        t.upsert_with(key(4), 200, || 0); // TTL reaps 2 and 3
        assert_eq!(t.evicted_ttl(), 2);
        assert_eq!(t.len(), 1);
    }
}
