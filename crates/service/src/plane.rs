//! The [`ServicePlane`]: per-tenant sharded driver threads behind one
//! cloneable routing handle.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use divscrape_detect::TenantId;
use divscrape_httplog::json::push_json_string;
use divscrape_pipeline::{
    BuildError, PipelineBuilder, PipelineReport, PipelineStats, RuntimeUpdates,
};

use crate::shard::{shard_of, Offer, ShardFinal, ShardHandle, ShardMsg, ShardSender};

/// Default per-shard queue depth (messages buffered between a source
/// pump and the shard driver).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Builds one shard's [`PipelineBuilder`] for a tenant. Called once per
/// shard with the shard index; the plane stamps the tenant id onto the
/// returned builder itself, so factories need not call
/// [`PipelineBuilder::tenant`].
pub type TenantFactory = dyn Fn(&TenantId, usize) -> PipelineBuilder + Send + Sync;

/// Why a [`ServicePlaneBuilder::build`], [`ServicePlane::join`] or
/// [`ServicePlane::set_eviction_budget`] call failed.
#[derive(Debug)]
pub enum ServiceError {
    /// A shard's pipeline failed to build.
    Pipeline(BuildError),
    /// The tenant is already served by the plane.
    DuplicateTenant(TenantId),
    /// [`ServicePlane::join`] was called but the plane has no default
    /// tenant factory.
    NoFactory,
    /// The global eviction budget cannot grant every worker replica of
    /// every shard at least one tracked client. Nothing was installed:
    /// the previous budget (if any) stays in force, and a refused join
    /// leaves the tenant unserved.
    BadGlobalBudget {
        /// The requested (or, for a refused join, installed)
        /// service-wide client budget.
        budget: usize,
        /// The minimum the tenant set requires: one client per worker
        /// replica per shard.
        required: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Pipeline(e) => write!(f, "shard pipeline build failed: {e}"),
            ServiceError::DuplicateTenant(id) => {
                write!(f, "tenant already joined: {}", id.as_str())
            }
            ServiceError::NoFactory => write!(f, "no default tenant factory configured"),
            ServiceError::BadGlobalBudget { budget, required } => write!(
                f,
                "global eviction budget {budget} cannot cover the served tenants \
                 (their worker replicas need at least {required} clients)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<BuildError> for ServiceError {
    fn from(e: BuildError) -> Self {
        ServiceError::Pipeline(e)
    }
}

/// What became of one ingested line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Queued on the owning shard.
    Routed,
    /// The shard's queue was full and the lossy path dropped the line
    /// (only [`ServicePlane::offer`] / [`TenantIngress::offer`] drop).
    Dropped,
    /// No such tenant (or its shards already stopped); counted and
    /// discarded.
    UnknownTenant,
}

/// Counters shared between the plane handle and every ingress clone.
#[derive(Default)]
struct RoutingCounters {
    routed: AtomicU64,
    dropped: AtomicU64,
    unrouted: AtomicU64,
}

/// Totals carried over from tenants that have left, keeping the plane's
/// aggregate counters monotonic across membership churn.
#[derive(Default, Clone, Copy)]
struct Departed {
    entries: u64,
    alerts: u64,
    parse_errors: u64,
    updates: RuntimeUpdates,
    triage_escalations: u64,
    triage_suppressed: u64,
    triage_replayed: u64,
    triage_spilled: u64,
    drift_alarms: u64,
    deadline_flushes: u64,
    /// A high-water mark, so departed shards fold in by `max`.
    max_buffered_age_us: u64,
}

impl Departed {
    /// Adds one stopped shard's lifetime counters.
    fn fold(&mut self, fin: &ShardFinal) {
        let stats = &fin.stats;
        self.entries += stats.entries_processed;
        self.alerts += stats.alerts;
        self.parse_errors += fin.parse_errors;
        self.updates.eviction += stats.runtime_updates.eviction;
        self.updates.adjudication += stats.runtime_updates.adjudication;
        self.triage_escalations += stats.triage_escalations;
        self.triage_suppressed += stats.triage_suppressed_entries;
        self.triage_replayed += stats.triage_replayed_entries;
        self.triage_spilled += stats.triage_spilled_entries;
        self.drift_alarms += stats.drift_alarms;
        self.deadline_flushes += stats.deadline_flushes;
        self.max_buffered_age_us = self.max_buffered_age_us.max(stats.max_buffered_age_us);
    }
}

struct TenantRuntime {
    id: TenantId,
    shards: Vec<ShardHandle>,
    frozen: bool,
}

struct PlaneShared {
    registry: RwLock<Vec<TenantRuntime>>,
    default_factory: Option<Arc<TenantFactory>>,
    default_shards: usize,
    queue_depth: usize,
    budget: Mutex<Option<usize>>,
    routing: RoutingCounters,
    departed: Mutex<Departed>,
}

/// Configures and builds a [`ServicePlane`]. Obtained from
/// [`ServicePlane::builder`].
pub struct ServicePlaneBuilder {
    tenants: Vec<(TenantId, usize, Arc<TenantFactory>)>,
    default_factory: Option<Arc<TenantFactory>>,
    default_shards: usize,
    queue_depth: usize,
    budget: Option<usize>,
}

impl fmt::Debug for ServicePlaneBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServicePlaneBuilder")
            .field("tenants", &self.tenants.len())
            .field("default_shards", &self.default_shards)
            .field("queue_depth", &self.queue_depth)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Default for ServicePlaneBuilder {
    fn default() -> Self {
        ServicePlaneBuilder {
            tenants: Vec::new(),
            default_factory: None,
            default_shards: 1,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            budget: None,
        }
    }
}

impl ServicePlaneBuilder {
    /// Registers a tenant with `shards` driver shards; `factory` builds
    /// each shard's pipeline (see [`TenantFactory`]). `shards` is
    /// clamped to at least 1.
    pub fn tenant(
        mut self,
        id: TenantId,
        shards: usize,
        factory: impl Fn(&TenantId, usize) -> PipelineBuilder + Send + Sync + 'static,
    ) -> Self {
        self.tenants.push((id, shards.max(1), Arc::new(factory)));
        self
    }

    /// Factory used when a tenant joins at runtime without one of its
    /// own ([`ServicePlane::join`], the admin `JOIN` command).
    pub fn default_factory(
        mut self,
        factory: impl Fn(&TenantId, usize) -> PipelineBuilder + Send + Sync + 'static,
    ) -> Self {
        self.default_factory = Some(Arc::new(factory));
        self
    }

    /// Shard count for tenants joining without an explicit count
    /// (default 1).
    pub fn default_shards(mut self, shards: usize) -> Self {
        self.default_shards = shards.max(1);
        self
    }

    /// Bounded per-shard queue depth, in messages (default
    /// [`DEFAULT_QUEUE_DEPTH`]). Blocking ingestion waits when a shard's
    /// queue is full; lossy ingestion drops and counts.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// One service-wide client-state budget, apportioned across every
    /// shard of every tenant by live-client share (re-apportioned on
    /// join/leave and by [`ServicePlane::set_eviction_budget`]).
    pub fn global_eviction_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Spawns every tenant's shard drivers and returns the plane handle.
    ///
    /// # Errors
    ///
    /// Fails when a tenant is registered twice, a shard pipeline does
    /// not build, or the global eviction budget is smaller than one
    /// client per worker replica per shard
    /// ([`ServiceError::BadGlobalBudget`]); already-spawned shards are
    /// stopped on the way out.
    pub fn build(self) -> Result<ServicePlane, ServiceError> {
        let mut seen: HashMap<&str, ()> = HashMap::new();
        for (id, _, _) in &self.tenants {
            if seen.insert(id.as_str(), ()).is_some() {
                return Err(ServiceError::DuplicateTenant(id.clone()));
            }
        }
        let mut registry = Vec::with_capacity(self.tenants.len());
        for (id, shards, factory) in &self.tenants {
            match spawn_tenant(id, *shards, factory.as_ref(), self.queue_depth) {
                Ok(runtime) => registry.push(runtime),
                Err(e) => {
                    stop_tenants(registry);
                    return Err(e);
                }
            }
        }
        if let Some(budget) = self.budget {
            let required = required_clients(&registry);
            if budget < required {
                stop_tenants(registry);
                return Err(ServiceError::BadGlobalBudget { budget, required });
            }
        }
        let plane = ServicePlane {
            shared: Arc::new(PlaneShared {
                registry: RwLock::new(registry),
                default_factory: self.default_factory,
                default_shards: self.default_shards,
                queue_depth: self.queue_depth,
                budget: Mutex::new(self.budget),
                routing: RoutingCounters::default(),
                departed: Mutex::new(Departed::default()),
            }),
        };
        if self.budget.is_some() {
            plane.rebalance_eviction();
        }
        Ok(plane)
    }
}

/// Stops every shard of the given tenants (a build or join backing out,
/// or the plane dropping).
fn stop_tenants(tenants: impl IntoIterator<Item = TenantRuntime>) {
    for runtime in tenants {
        for shard in runtime.shards {
            let _ = shard.stop();
        }
    }
}

/// The smallest global eviction budget the tenant set can run under:
/// one client per worker replica per shard (the floors
/// [`apportion_budget`] reserves before sharing out the rest).
fn required_clients(registry: &[TenantRuntime]) -> usize {
    registry
        .iter()
        .flat_map(|t| t.shards.iter())
        .map(ShardHandle::worker_count)
        .sum()
}

fn spawn_tenant<F>(
    id: &TenantId,
    shards: usize,
    factory: &F,
    queue_depth: usize,
) -> Result<TenantRuntime, ServiceError>
where
    F: Fn(&TenantId, usize) -> PipelineBuilder + ?Sized,
{
    let mut handles = Vec::with_capacity(shards);
    for shard in 0..shards {
        let pipeline = factory(id, shard).tenant(id.clone()).build()?;
        handles.push(ShardHandle::spawn(pipeline, queue_depth));
    }
    Ok(TenantRuntime {
        id: id.clone(),
        shards: handles,
        frozen: false,
    })
}

/// A multi-tenant, sharded detection service: every tenant gets its own
/// driver thread per shard, so one tenant's stalled sink can fill only
/// its own bounded queues — it cannot delay another tenant's ingestion.
///
/// Built by [`ServicePlane::builder`]; the handle is cheap to clone and
/// every clone drives the same plane (source pumps, the admin endpoint
/// and the application share clones). Within a tenant, lines are routed
/// by [`shard_of`] so a client's whole session stays on one shard and
/// each shard's verdicts are bit-identical to a standalone pipeline over
/// that client subset (pinned by this repository's `service_equivalence`
/// test).
///
/// ```
/// use divscrape_detect::{Sentinel, TenantId};
/// use divscrape_pipeline::PipelineBuilder;
/// use divscrape_service::ServicePlane;
///
/// let shop = TenantId::new("shop");
/// let plane = ServicePlane::builder()
///     .tenant(shop.clone(), 2, |_, _| {
///         PipelineBuilder::new().detector(Sentinel::stock())
///     })
///     .build()
///     .map_err(|e| e.to_string())?;
///
/// let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
/// plane.ingest(&shop, line.to_owned());
/// let reports = plane.drain(&shop).expect("tenant is served");
/// assert_eq!(reports.len(), 2); // one report per shard
/// assert_eq!(reports.iter().map(|r| r.requests()).sum::<usize>(), 1);
/// # Ok::<(), String>(())
/// ```
#[derive(Clone)]
pub struct ServicePlane {
    shared: Arc<PlaneShared>,
}

impl fmt::Debug for ServicePlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tenants = self.tenants();
        f.debug_struct("ServicePlane")
            .field("tenants", &tenants)
            .finish_non_exhaustive()
    }
}

impl ServicePlane {
    /// Starts configuring a plane.
    ///
    /// ```
    /// use divscrape_service::ServicePlane;
    /// let builder = ServicePlane::builder().default_shards(2);
    /// let plane = builder.build().map_err(|e| e.to_string())?;
    /// assert!(plane.tenants().is_empty());
    /// # Ok::<(), String>(())
    /// ```
    pub fn builder() -> ServicePlaneBuilder {
        ServicePlaneBuilder::default()
    }

    /// The tenants currently served, in registration order.
    ///
    /// ```
    /// use divscrape_service::ServicePlane;
    /// let plane = ServicePlane::builder().build().map_err(|e| e.to_string())?;
    /// assert!(plane.tenants().is_empty());
    /// # Ok::<(), String>(())
    /// ```
    pub fn tenants(&self) -> Vec<TenantId> {
        self.read_registry().iter().map(|t| t.id.clone()).collect()
    }

    /// Routes one raw line to `tenant`'s owning shard, **blocking** while
    /// that shard's queue is full (backpressure confined to the caller —
    /// use a per-tenant [`SourcePump`](crate::SourcePump) so it blocks
    /// only that tenant's pump thread).
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::{IngestOutcome, ServicePlane};
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 1, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
    /// assert_eq!(plane.ingest(&shop, line.to_owned()), IngestOutcome::Routed);
    /// let other = TenantId::new("nobody");
    /// assert_eq!(plane.ingest(&other, line.to_owned()), IngestOutcome::UnknownTenant);
    /// # Ok::<(), String>(())
    /// ```
    pub fn ingest(&self, tenant: &TenantId, line: String) -> IngestOutcome {
        match self.route(tenant, &line) {
            Some(tx) if tx.send_line(&line) => {
                self.shared.routing.routed.fetch_add(1, Ordering::Relaxed);
                IngestOutcome::Routed
            }
            // A routed-but-gone shard (tenant left mid-send) counts the
            // same as an unknown tenant: the line had no owner.
            _ => {
                self.shared.routing.unrouted.fetch_add(1, Ordering::Relaxed);
                IngestOutcome::UnknownTenant
            }
        }
    }

    /// Lossy twin of [`ingest`](Self::ingest): never blocks — when the
    /// owning shard's queue is full the line is dropped and counted
    /// (syslog semantics, the UDP intake path).
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::{IngestOutcome, ServicePlane};
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 1, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
    /// assert_eq!(plane.offer(&shop, line.to_owned()), IngestOutcome::Routed);
    /// # Ok::<(), String>(())
    /// ```
    pub fn offer(&self, tenant: &TenantId, line: String) -> IngestOutcome {
        match self.route(tenant, &line) {
            Some(tx) => match tx.offer_line(&line) {
                Offer::Accepted => {
                    self.shared.routing.routed.fetch_add(1, Ordering::Relaxed);
                    IngestOutcome::Routed
                }
                Offer::Full => {
                    self.shared.routing.dropped.fetch_add(1, Ordering::Relaxed);
                    IngestOutcome::Dropped
                }
                Offer::Gone => {
                    self.shared.routing.unrouted.fetch_add(1, Ordering::Relaxed);
                    IngestOutcome::UnknownTenant
                }
            },
            None => {
                self.shared.routing.unrouted.fetch_add(1, Ordering::Relaxed);
                IngestOutcome::UnknownTenant
            }
        }
    }

    /// A dedicated ingress handle for one tenant: shard senders resolved
    /// once, so per-line routing skips the registry. Returns `None` for
    /// an unknown tenant. If the tenant later leaves, sends through the
    /// stale handle report [`IngestOutcome::UnknownTenant`].
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::{IngestOutcome, ServicePlane};
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 2, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let ingress = plane.ingress(&shop).expect("tenant is served");
    /// let line = r#"10.0.0.1 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 5 "-" "curl/7.58.0""#;
    /// assert_eq!(ingress.send(line.to_owned()), IngestOutcome::Routed);
    /// # Ok::<(), String>(())
    /// ```
    pub fn ingress(&self, tenant: &TenantId) -> Option<TenantIngress> {
        let registry = self.read_registry();
        let runtime = registry.iter().find(|t| &t.id == tenant)?;
        Some(TenantIngress {
            senders: runtime.shards.iter().map(|s| s.sender()).collect(),
            plane: self.clone(),
        })
    }

    fn route(&self, tenant: &TenantId, line: &str) -> Option<ShardSender> {
        let registry = self.read_registry();
        let runtime = registry.iter().find(|t| &t.id == tenant)?;
        let shard = shard_of(line, runtime.shards.len());
        Some(runtime.shards[shard].sender())
        // Lock dropped here — the (possibly blocking) send happens outside.
    }

    /// Adds a tenant at runtime using the plane's default factory and
    /// shard count; re-apportions the global eviction budget if one is
    /// set.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoFactory`] without a
    /// [`default_factory`](ServicePlaneBuilder::default_factory);
    /// otherwise as [`join_with`](Self::join_with).
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let plane = ServicePlane::builder()
    ///     .default_factory(|_, _| PipelineBuilder::new().detector(Sentinel::stock()))
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// plane.join(&TenantId::new("late"), None).map_err(|e| e.to_string())?;
    /// assert_eq!(plane.tenants().len(), 1);
    /// # Ok::<(), String>(())
    /// ```
    pub fn join(&self, tenant: &TenantId, shards: Option<usize>) -> Result<(), ServiceError> {
        let factory = self
            .shared
            .default_factory
            .clone()
            .ok_or(ServiceError::NoFactory)?;
        self.join_with(
            tenant,
            shards.unwrap_or(self.shared.default_shards),
            move |id, shard| factory(id, shard),
        )
    }

    /// Adds a tenant at runtime with its own pipeline factory.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateTenant`] when already served;
    /// [`ServiceError::Pipeline`] when a shard pipeline fails to build;
    /// [`ServiceError::BadGlobalBudget`] when the installed global
    /// eviction budget cannot cover the grown tenant set — the tenant
    /// is not added and the other tenants' allotments do not move.
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let plane = ServicePlane::builder().build().map_err(|e| e.to_string())?;
    /// plane
    ///     .join_with(&TenantId::new("bespoke"), 2, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .map_err(|e| e.to_string())?;
    /// assert_eq!(plane.tenants().len(), 1);
    /// # Ok::<(), String>(())
    /// ```
    pub fn join_with(
        &self,
        tenant: &TenantId,
        shards: usize,
        factory: impl Fn(&TenantId, usize) -> PipelineBuilder + Send + Sync,
    ) -> Result<(), ServiceError> {
        if self.read_registry().iter().any(|t| &t.id == tenant) {
            return Err(ServiceError::DuplicateTenant(tenant.clone()));
        }
        // Build outside the write lock — pipeline spawning is slow.
        let runtime = spawn_tenant(tenant, shards.max(1), &factory, self.shared.queue_depth)?;
        let admitted = {
            // Budget before registry, like `set_eviction_budget`, so the
            // check below and a concurrent budget change serialize.
            let budget = self.lock_budget();
            let mut registry = self.write_registry();
            // The joiner's worker counts are only known once built, so
            // the grown set is validated here, after the spawn.
            let required =
                required_clients(&registry) + required_clients(std::slice::from_ref(&runtime));
            if registry.iter().any(|t| &t.id == tenant) {
                // Raced with a concurrent join; discard ours.
                Err((ServiceError::DuplicateTenant(tenant.clone()), runtime))
            } else if let Some(budget) = (*budget).filter(|&budget| budget < required) {
                Err((ServiceError::BadGlobalBudget { budget, required }, runtime))
            } else {
                registry.push(runtime);
                Ok(())
            }
        };
        match admitted {
            Ok(()) => {
                self.rebalance_eviction();
                Ok(())
            }
            Err((refusal, runtime)) => {
                stop_tenants([runtime]);
                Err(refusal)
            }
        }
    }

    /// Removes a tenant: final-drains every shard, folds its lifetime
    /// counters into the plane's departed totals (aggregates stay
    /// monotonic) and returns the per-shard reports, in shard order.
    /// Returns `None` for an unknown tenant.
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 2, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let reports = plane.leave(&shop).expect("tenant was served");
    /// assert_eq!(reports.len(), 2);
    /// assert!(plane.tenants().is_empty());
    /// # Ok::<(), String>(())
    /// ```
    pub fn leave(&self, tenant: &TenantId) -> Option<Vec<PipelineReport>> {
        let runtime = {
            let mut registry = self.write_registry();
            let at = registry.iter().position(|t| &t.id == tenant)?;
            registry.remove(at)
        };
        let mut reports = Vec::with_capacity(runtime.shards.len());
        for shard in runtime.shards {
            if let Some(fin) = shard.stop() {
                self.lock_departed().fold(&fin);
                reports.push(fin.report);
            }
        }
        self.rebalance_eviction();
        Some(reports)
    }

    /// Freezes (`true`) or thaws (`false`) online recalibration on every
    /// shard of `tenant`. Returns whether the tenant is served. The
    /// freeze rides the shard queues, so it lands *after* any lines
    /// already queued — ordered like traffic.
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 1, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// assert!(plane.set_frozen(&shop, true));
    /// assert!(plane.stats().tenants[0].frozen);
    /// # Ok::<(), String>(())
    /// ```
    pub fn set_frozen(&self, tenant: &TenantId, frozen: bool) -> bool {
        let senders: Vec<_> = {
            let mut registry = self.write_registry();
            match registry.iter_mut().find(|t| &t.id == tenant) {
                Some(runtime) => {
                    runtime.frozen = frozen;
                    runtime.shards.iter().map(|s| s.sender()).collect()
                }
                None => return false,
            }
        };
        for tx in senders {
            let _ = tx.send(ShardMsg::Freeze(frozen));
        }
        true
    }

    /// Installs a service-wide client-state budget and apportions it
    /// across every shard of every tenant — floors of one client per
    /// worker replica, the remainder by live-client share. Returns the
    /// per-tenant allotments, in registration order. Budget installs
    /// ride the shard queues (fire-and-forget), so a stalled shard
    /// applies its allotment when it next drains its queue.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadGlobalBudget`] when `budget` is smaller than
    /// one client per worker replica per shard — the floors alone would
    /// exceed it, so it could not be honoured. The previous budget (or
    /// none) stays in force.
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 2, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock()).workers(2)
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let allotments = plane.set_eviction_budget(100).map_err(|e| e.to_string())?;
    /// assert_eq!(allotments.len(), 1);
    /// assert_eq!(allotments[0].1, 100); // whole budget to the only tenant
    /// // 2 shards × 2 workers need 4 clients: 3 is refused, 100 stays.
    /// assert!(plane.set_eviction_budget(3).is_err());
    /// assert_eq!(plane.stats().eviction_budget, Some(100));
    /// # Ok::<(), String>(())
    /// ```
    pub fn set_eviction_budget(
        &self,
        budget: usize,
    ) -> Result<Vec<(TenantId, usize)>, ServiceError> {
        {
            let mut installed = self.lock_budget();
            let required = required_clients(&self.read_registry());
            if budget < required {
                return Err(ServiceError::BadGlobalBudget { budget, required });
            }
            *installed = Some(budget);
        }
        Ok(self.rebalance_eviction())
    }

    /// Re-apportions the currently installed budget (no-op without one).
    /// Called automatically on join/leave; call it periodically to track
    /// shifting live-client shares. Returns per-tenant allotments.
    pub fn rebalance_eviction(&self) -> Vec<(TenantId, usize)> {
        let Some(budget) = *self.lock_budget() else {
            return Vec::new();
        };
        // Snapshot (sender, floor, share) per shard without holding the
        // lock across any send.
        let mut senders = Vec::new();
        let mut floors = Vec::new();
        let mut shares = Vec::new();
        let mut owners = Vec::new();
        {
            let registry = self.read_registry();
            for (slot, runtime) in registry.iter().enumerate() {
                for shard in &runtime.shards {
                    let (stats, _) = shard.published();
                    senders.push(shard.sender());
                    floors.push(shard.worker_count());
                    shares.push(stats.live_clients_aggregate);
                    owners.push((slot, runtime.id.clone()));
                }
            }
        }
        if senders.is_empty() {
            return Vec::new();
        }
        let allotments = apportion_budget(budget, &floors, &shares);
        let mut per_tenant: Vec<(TenantId, usize)> = Vec::new();
        for ((tx, allotment), (slot, id)) in senders.iter().zip(&allotments).zip(&owners) {
            let _ = tx.send(ShardMsg::Budget(*allotment));
            if per_tenant.len() <= *slot {
                per_tenant.push((id.clone(), 0));
            }
            per_tenant[*slot].1 += *allotment;
        }
        per_tenant
    }

    /// Flushes every shard of `tenant` and returns the per-shard
    /// [`PipelineReport`]s, in shard order ([`shard_of`] index). Returns
    /// `None` for an unknown tenant. Blocks until every shard has
    /// drained — queued lines are processed first.
    pub fn drain(&self, tenant: &TenantId) -> Option<Vec<PipelineReport>> {
        let senders: Vec<_> = {
            let registry = self.read_registry();
            let runtime = registry.iter().find(|t| &t.id == tenant)?;
            runtime.shards.iter().map(|s| s.sender()).collect()
        };
        Some(drain_shards(&senders))
    }

    /// Flushes every tenant and returns `(tenant, per-shard reports)`
    /// pairs in registration order. All shards drain concurrently.
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let plane = ServicePlane::builder()
    ///     .tenant(TenantId::new("a"), 1, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .tenant(TenantId::new("b"), 2, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let all = plane.drain_all();
    /// assert_eq!(all.len(), 2);
    /// assert_eq!(all[1].1.len(), 2);
    /// # Ok::<(), String>(())
    /// ```
    pub fn drain_all(&self) -> Vec<(TenantId, Vec<PipelineReport>)> {
        let plan: Vec<(TenantId, Vec<ShardSender>)> = {
            let registry = self.read_registry();
            registry
                .iter()
                .map(|t| (t.id.clone(), t.shards.iter().map(|s| s.sender()).collect()))
                .collect()
        };
        plan.into_iter()
            .map(|(id, senders)| (id, drain_shards(&senders)))
            .collect()
    }

    /// Removes every tenant (final drain, departed totals folded). The
    /// aggregate counters in [`stats`](Self::stats) survive — shutdown
    /// folds everything into the departed totals.
    pub fn shutdown(&self) {
        for tenant in self.tenants() {
            let _ = self.leave(&tenant);
        }
    }

    /// A point-in-time snapshot of the whole plane: per-tenant per-shard
    /// pipeline counters plus monotonic aggregates. Reads each shard's
    /// last *published* snapshot — never the pipeline itself — so a
    /// stalled shard yields stale numbers instead of blocking the call.
    ///
    /// ```
    /// use divscrape_detect::{Sentinel, TenantId};
    /// use divscrape_pipeline::PipelineBuilder;
    /// use divscrape_service::ServicePlane;
    ///
    /// let shop = TenantId::new("shop");
    /// let plane = ServicePlane::builder()
    ///     .tenant(shop.clone(), 2, |_, _| {
    ///         PipelineBuilder::new().detector(Sentinel::stock())
    ///     })
    ///     .build()
    ///     .map_err(|e| e.to_string())?;
    /// let stats = plane.stats();
    /// assert_eq!(stats.tenants.len(), 1);
    /// assert_eq!(stats.tenants[0].shards.len(), 2);
    /// assert_eq!(stats.entries_processed, 0);
    /// # Ok::<(), String>(())
    /// ```
    pub fn stats(&self) -> ServiceStats {
        let mut tenants = Vec::new();
        {
            let registry = self.read_registry();
            for runtime in registry.iter() {
                let mut shards = Vec::with_capacity(runtime.shards.len());
                let mut parse_errors = 0u64;
                for shard in &runtime.shards {
                    let (stats, errors) = shard.published();
                    parse_errors += errors;
                    shards.push(stats);
                }
                tenants.push(TenantShardStats {
                    tenant: runtime.id.clone(),
                    frozen: runtime.frozen,
                    parse_errors,
                    shards,
                });
            }
        }
        let departed = *self.lock_departed();
        let live = |f: &dyn Fn(&PipelineStats) -> u64| -> u64 {
            tenants.iter().flat_map(|t| t.shards.iter()).map(f).sum()
        };
        ServiceStats {
            entries_processed: departed.entries + live(&|s| s.entries_processed),
            entries_pending: tenants
                .iter()
                .flat_map(|t| t.shards.iter())
                .map(|s| s.entries_pending)
                .sum(),
            alerts: departed.alerts + live(&|s| s.alerts),
            inflight_chunks: tenants
                .iter()
                .flat_map(|t| t.shards.iter())
                .map(|s| s.inflight_chunks)
                .sum(),
            live_clients_aggregate: tenants
                .iter()
                .flat_map(|t| t.shards.iter())
                .map(|s| s.live_clients_aggregate)
                .sum(),
            runtime_updates: RuntimeUpdates {
                eviction: departed.updates.eviction + live(&|s| s.runtime_updates.eviction),
                adjudication: departed.updates.adjudication
                    + live(&|s| s.runtime_updates.adjudication),
            },
            parse_errors: departed.parse_errors
                + tenants.iter().map(|t| t.parse_errors).sum::<u64>(),
            triage_escalations: departed.triage_escalations + live(&|s| s.triage_escalations),
            triage_suppressed_entries: departed.triage_suppressed
                + live(&|s| s.triage_suppressed_entries),
            triage_replayed_entries: departed.triage_replayed
                + live(&|s| s.triage_replayed_entries),
            triage_spilled_entries: departed.triage_spilled + live(&|s| s.triage_spilled_entries),
            drift_alarms: departed.drift_alarms + live(&|s| s.drift_alarms),
            deadline_flushes: departed.deadline_flushes + live(&|s| s.deadline_flushes),
            max_buffered_age_us: tenants
                .iter()
                .flat_map(|t| t.shards.iter())
                .map(|s| s.max_buffered_age_us)
                .fold(departed.max_buffered_age_us, u64::max),
            routed_lines: self.shared.routing.routed.load(Ordering::Relaxed),
            dropped_lines: self.shared.routing.dropped.load(Ordering::Relaxed),
            unrouted_lines: self.shared.routing.unrouted.load(Ordering::Relaxed),
            eviction_budget: *self.lock_budget(),
            tenants,
        }
    }

    fn read_registry(&self) -> std::sync::RwLockReadGuard<'_, Vec<TenantRuntime>> {
        self.shared
            .registry
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write_registry(&self) -> std::sync::RwLockWriteGuard<'_, Vec<TenantRuntime>> {
        self.shared
            .registry
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_budget(&self) -> std::sync::MutexGuard<'_, Option<usize>> {
        self.shared
            .budget
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_departed(&self) -> std::sync::MutexGuard<'_, Departed> {
        self.shared
            .departed
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Splits `budget` across shard pools: every pool keeps its floor (one
/// client per worker replica), the spare goes out proportionally to
/// `shares` (evenly when all shares are zero), flooring remainders
/// handed out front to back. The result sums to exactly `budget` when
/// `budget >= Σfloors` — `build`, `set_eviction_budget` and `join_with`
/// refuse smaller budgets, so the plane never calls it otherwise.
fn apportion_budget(budget: usize, floors: &[usize], shares: &[usize]) -> Vec<usize> {
    let n = floors.len();
    let reserved: usize = floors.iter().sum();
    let spare = budget.saturating_sub(reserved);
    let total: usize = shares.iter().sum();
    let mut out = floors.to_vec();
    if total == 0 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot += spare / n + usize::from(i < spare % n);
        }
    } else {
        let mut handed = 0usize;
        for (slot, &share) in out.iter_mut().zip(shares) {
            // u128 keeps budget × share exact for any realistic scale.
            let grant = (spare as u128 * share as u128 / total as u128) as usize;
            *slot += grant;
            handed += grant;
        }
        for i in 0..spare - handed {
            out[i % n] += 1;
        }
    }
    out
}

fn drain_shards(senders: &[ShardSender]) -> Vec<PipelineReport> {
    // Kick every shard first so they drain concurrently, then collect.
    let replies: Vec<_> = senders
        .iter()
        .map(|tx| {
            let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
            let sent = tx.send(ShardMsg::Drain(reply_tx));
            (sent, reply_rx)
        })
        .collect();
    replies
        .into_iter()
        .filter_map(|(sent, rx)| if sent { rx.recv().ok() } else { None })
        .collect()
}

/// A per-tenant ingress handle: shard routing resolved once (see
/// [`ServicePlane::ingress`]). Clones share the plane's routing
/// counters.
#[derive(Clone)]
pub struct TenantIngress {
    senders: Vec<ShardSender>,
    plane: ServicePlane,
}

impl fmt::Debug for TenantIngress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantIngress")
            .field("shards", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl TenantIngress {
    /// Blocking routed send — see [`ServicePlane::ingest`].
    pub fn send(&self, line: String) -> IngestOutcome {
        let shard = shard_of(&line, self.senders.len());
        if self.senders[shard].send_line(&line) {
            self.plane
                .shared
                .routing
                .routed
                .fetch_add(1, Ordering::Relaxed);
            IngestOutcome::Routed
        } else {
            self.plane
                .shared
                .routing
                .unrouted
                .fetch_add(1, Ordering::Relaxed);
            IngestOutcome::UnknownTenant
        }
    }

    /// Lossy send — see [`ServicePlane::offer`].
    pub fn offer(&self, line: String) -> IngestOutcome {
        let shard = shard_of(&line, self.senders.len());
        match self.senders[shard].offer_line(&line) {
            Offer::Accepted => {
                self.plane
                    .shared
                    .routing
                    .routed
                    .fetch_add(1, Ordering::Relaxed);
                IngestOutcome::Routed
            }
            Offer::Full => {
                self.plane
                    .shared
                    .routing
                    .dropped
                    .fetch_add(1, Ordering::Relaxed);
                IngestOutcome::Dropped
            }
            Offer::Gone => {
                self.plane
                    .shared
                    .routing
                    .unrouted
                    .fetch_add(1, Ordering::Relaxed);
                IngestOutcome::UnknownTenant
            }
        }
    }
}

/// One tenant's slice of a [`ServiceStats`] snapshot: the per-shard
/// pipeline counters plus tenant-level tallies.
#[derive(Debug, Clone)]
pub struct TenantShardStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Whether recalibration is administratively frozen
    /// ([`ServicePlane::set_frozen`]).
    pub frozen: bool,
    /// Lines that reached this tenant's shards but failed CLF parsing.
    pub parse_errors: u64,
    /// Per-shard pipeline counters, in [`shard_of`] index order.
    pub shards: Vec<PipelineStats>,
}

impl TenantShardStats {
    /// Entries finalized across this tenant's shards.
    pub fn entries_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.entries_processed).sum()
    }

    /// Adjudicated alerts raised across this tenant's shards.
    pub fn alerts(&self) -> u64 {
        self.shards.iter().map(|s| s.alerts).sum()
    }

    /// Client-state footprint summed across this tenant's shards.
    pub fn live_clients(&self) -> usize {
        self.shards.iter().map(|s| s.live_clients_aggregate).sum()
    }

    /// Triage counters summed across this tenant's shards, as
    /// `(escalations, suppressed, replayed, spilled)` — all zero for a
    /// tenant whose pipelines run without a triage stage.
    pub fn triage_counters(&self) -> (u64, u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.triage_escalations,
                acc.1 + s.triage_suppressed_entries,
                acc.2 + s.triage_replayed_entries,
                acc.3 + s.triage_spilled_entries,
            )
        })
    }
}

/// A point-in-time snapshot of a [`ServicePlane`]. The `entries_processed`,
/// `alerts`, `runtime_updates` and `parse_errors` aggregates include
/// tenants that have since left — monotonic across membership churn.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-tenant, per-shard counters in registration order.
    pub tenants: Vec<TenantShardStats>,
    /// Entries finalized across all shards of all tenants, departed
    /// tenants included — monotonic.
    pub entries_processed: u64,
    /// Entries accepted but not yet finalized, across current tenants.
    pub entries_pending: usize,
    /// Adjudicated alerts raised, departed tenants included — monotonic.
    pub alerts: u64,
    /// Chunks in flight across every shard's worker pool.
    pub inflight_chunks: usize,
    /// Service-wide client-state footprint (sum of every shard's
    /// aggregate).
    pub live_clients_aggregate: usize,
    /// Runtime reconfiguration applied across the plane, departed
    /// tenants included — monotonic.
    pub runtime_updates: RuntimeUpdates,
    /// Lines rejected by CLF parsing, departed tenants included.
    pub parse_errors: u64,
    /// Clients escalated by triage filters across the plane, departed
    /// tenants included — monotonic (zero when no tenant runs triage).
    pub triage_escalations: u64,
    /// Entries suppressed by triage stages across the plane, departed
    /// tenants included — monotonic.
    pub triage_suppressed_entries: u64,
    /// Suppressed entries replayed through the detectors across the
    /// plane, departed tenants included — monotonic.
    pub triage_replayed_entries: u64,
    /// Suppressed entries spilled under replay-buffer caps across the
    /// plane, departed tenants included — monotonic.
    pub triage_spilled_entries: u64,
    /// Drift alarms raised by tenant recalibrators across the plane,
    /// departed tenants included — monotonic (zero when no tenant runs
    /// recalibration). See
    /// [`PipelineStats::drift_alarms`](divscrape_pipeline::PipelineStats::drift_alarms).
    pub drift_alarms: u64,
    /// Chunks a shard pipeline submitted because their oldest entry
    /// reached the flush deadline, departed tenants included —
    /// monotonic. See
    /// [`PipelineStats::deadline_flushes`](divscrape_pipeline::PipelineStats::deadline_flushes).
    pub deadline_flushes: u64,
    /// The longest any entry waited in a shard pipeline's ingest buffer
    /// before its chunk was submitted, in microseconds — the maximum
    /// over every shard, departed tenants included, so it never falls.
    /// See
    /// [`PipelineStats::max_buffered_age_us`](divscrape_pipeline::PipelineStats::max_buffered_age_us).
    pub max_buffered_age_us: u64,
    /// Lines accepted onto a shard queue.
    pub routed_lines: u64,
    /// Lines dropped by the lossy path because the owning shard's queue
    /// was full.
    pub dropped_lines: u64,
    /// Lines for tenants the plane does not serve.
    pub unrouted_lines: u64,
    /// The installed service-wide client budget, if any.
    pub eviction_budget: Option<usize>,
}

impl ServiceStats {
    /// Renders the snapshot as one JSON object on a single line — the
    /// admin endpoint's `STATS` reply.
    ///
    /// ```
    /// use divscrape_service::ServiceStats;
    ///
    /// let json = ServiceStats::default().to_json();
    /// assert!(json.starts_with('{') && json.ends_with('}'));
    /// assert!(json.contains("\"entries_processed\":0"));
    /// assert!(!json.contains('\n'));
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.tenants.len() * 160);
        // Formatting into a String cannot fail.
        let _ = write!(
            out,
            "{{\"entries_processed\":{},\"entries_pending\":{},\"alerts\":{},\
             \"inflight_chunks\":{},\"live_clients_aggregate\":{},\"parse_errors\":{},\
             \"routed_lines\":{},\"dropped_lines\":{},\"unrouted_lines\":{},\"eviction_budget\":",
            self.entries_processed,
            self.entries_pending,
            self.alerts,
            self.inflight_chunks,
            self.live_clients_aggregate,
            self.parse_errors,
            self.routed_lines,
            self.dropped_lines,
            self.unrouted_lines,
        );
        match self.eviction_budget {
            Some(budget) => _ = write!(out, "{budget}"),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"runtime_updates\":{{\"eviction\":{},\"adjudication\":{}}},\
             \"triage\":{{\"escalations\":{},\"suppressed\":{},\"replayed\":{},\"spilled\":{}}},\
             \"drift_alarms\":{},\"deadline_flushes\":{},\"max_buffered_age_us\":{},\"tenants\":[",
            self.runtime_updates.eviction,
            self.runtime_updates.adjudication,
            self.triage_escalations,
            self.triage_suppressed_entries,
            self.triage_replayed_entries,
            self.triage_spilled_entries,
            self.drift_alarms,
            self.deadline_flushes,
            self.max_buffered_age_us,
        );
        for (i, tenant) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            push_json_string(&mut out, tenant.tenant.as_str());
            let (escalations, suppressed, replayed, spilled) = tenant.triage_counters();
            let _ = write!(
                out,
                ",\"shards\":{},\"entries_processed\":{},\"alerts\":{},\"live_clients\":{},\
                 \"parse_errors\":{},\"triage\":{{\"escalations\":{escalations},\
                 \"suppressed\":{suppressed},\"replayed\":{replayed},\"spilled\":{spilled}}},\
                 \"frozen\":{}}}",
                tenant.shards.len(),
                tenant.entries_processed(),
                tenant.alerts(),
                tenant.live_clients(),
                tenant.parse_errors,
                tenant.frozen,
            );
        }
        out.push_str("]}");
        out
    }
}

impl Drop for PlaneShared {
    fn drop(&mut self) {
        let registry = self
            .registry
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        stop_tenants(registry.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_detect::Sentinel;
    use divscrape_pipeline::Adjudication;

    fn factory(_: &TenantId, _: usize) -> PipelineBuilder {
        PipelineBuilder::new()
            .detector(Sentinel::stock())
            .adjudication(Adjudication::k_of_n(1))
    }

    fn clf(ip: &str, seq: u32) -> String {
        format!(
            "{ip} - - [11/Mar/2018:00:00:{:02} +0000] \"GET /item/{seq} HTTP/1.1\" 200 12 \"-\" \"curl/7.58.0\"",
            seq % 60
        )
    }

    #[test]
    fn routed_lines_land_and_drain_across_shards() {
        let shop = TenantId::new("shop");
        let plane = ServicePlane::builder()
            .tenant(shop.clone(), 4, factory)
            .build()
            .expect("plane builds");
        for i in 0..40 {
            let line = clf(&format!("10.0.{}.{}", i % 5, i % 7 + 1), i);
            assert_eq!(plane.ingest(&shop, line), IngestOutcome::Routed);
        }
        let reports = plane.drain(&shop).expect("served");
        assert_eq!(reports.len(), 4);
        let total: usize = reports.iter().map(|r| r.requests()).sum();
        assert_eq!(total, 40);
        let stats = plane.stats();
        assert_eq!(stats.routed_lines, 40);
        assert_eq!(stats.entries_processed, 40);
        assert_eq!(stats.parse_errors, 0);
    }

    #[test]
    fn unknown_tenant_is_counted_not_fatal() {
        let plane = ServicePlane::builder().build().expect("plane builds");
        let ghost = TenantId::new("ghost");
        assert_eq!(
            plane.ingest(&ghost, clf("10.0.0.1", 0)),
            IngestOutcome::UnknownTenant
        );
        assert_eq!(plane.stats().unrouted_lines, 1);
    }

    #[test]
    fn parse_errors_are_counted_per_tenant() {
        let shop = TenantId::new("shop");
        let plane = ServicePlane::builder()
            .tenant(shop.clone(), 1, factory)
            .build()
            .expect("plane builds");
        plane.ingest(&shop, "not a log line".to_owned());
        plane.ingest(&shop, clf("10.0.0.1", 1));
        let _ = plane.drain(&shop);
        let stats = plane.stats();
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(stats.tenants[0].parse_errors, 1);
        assert_eq!(stats.entries_processed, 1);
    }

    #[test]
    fn join_leave_round_trip_folds_departed_totals() {
        let plane = ServicePlane::builder()
            .default_factory(factory)
            .default_shards(2)
            .build()
            .expect("plane builds");
        let late = TenantId::new("late");
        plane.join(&late, None).expect("join");
        assert!(matches!(
            plane.join(&late, None),
            Err(ServiceError::DuplicateTenant(_))
        ));
        for i in 0..30 {
            plane.ingest(&late, clf(&format!("10.1.0.{}", i % 6 + 1), i));
        }
        let reports = plane.leave(&late).expect("served");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports.iter().map(|r| r.requests()).sum::<usize>(), 30);
        let stats = plane.stats();
        assert!(stats.tenants.is_empty());
        assert_eq!(stats.entries_processed, 30, "departed totals folded");
        assert!(plane.leave(&late).is_none());
    }

    fn two_workers(_: &TenantId, _: usize) -> PipelineBuilder {
        PipelineBuilder::new()
            .detector(Sentinel::stock())
            .adjudication(Adjudication::k_of_n(1))
            .workers(2)
    }

    #[test]
    fn duplicate_tenants_are_rejected_at_build() {
        let err = ServicePlane::builder()
            .tenant(TenantId::new("a"), 1, factory)
            .tenant(TenantId::new("a"), 2, factory)
            .build()
            .unwrap_err();
        assert!(matches!(err, ServiceError::DuplicateTenant(t) if t.as_str() == "a"));
    }

    #[test]
    fn build_validates_and_apportions_the_global_budget() {
        // 2 tenants × 2 shards × 2 workers: at least 8 clients required.
        let build = |budget: usize| {
            ServicePlane::builder()
                .tenant(TenantId::new("a"), 2, two_workers)
                .tenant(TenantId::new("b"), 2, two_workers)
                .global_eviction_budget(budget)
                .build()
        };
        assert!(matches!(
            build(7).unwrap_err(),
            ServiceError::BadGlobalBudget {
                budget: 7,
                required: 8
            }
        ));
        let plane = build(64).expect("budget covers the floors");
        let applied = plane.rebalance_eviction();
        // No live clients yet: even split, the whole budget granted.
        assert_eq!(applied.iter().map(|(_, b)| b).sum::<usize>(), 64);
        assert_eq!((applied[0].1, applied[1].1), (32, 32));
    }

    #[test]
    fn set_eviction_budget_refuses_what_the_floors_would_exceed() {
        let plane = ServicePlane::builder()
            .tenant(TenantId::new("a"), 2, two_workers)
            .tenant(TenantId::new("b"), 2, two_workers)
            .build()
            .expect("plane builds");
        // Refused with no budget installed: none gets installed.
        let err = plane.set_eviction_budget(0).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::BadGlobalBudget {
                budget: 0,
                required: 8
            }
        ));
        assert_eq!(plane.stats().eviction_budget, None);
        assert!(plane.rebalance_eviction().is_empty());
        // The exact requirement is accepted...
        let applied = plane.set_eviction_budget(8).expect("floors fit exactly");
        assert_eq!(applied.iter().map(|(_, b)| b).sum::<usize>(), 8);
        // ...and a later under-sized request leaves it in force.
        assert!(plane.set_eviction_budget(7).is_err());
        assert_eq!(plane.stats().eviction_budget, Some(8));
        assert_eq!(
            plane
                .rebalance_eviction()
                .iter()
                .map(|(_, b)| b)
                .sum::<usize>(),
            8
        );
    }

    #[test]
    fn join_budget_error_reports_the_true_requirement() {
        // Budget 8 exactly covers two 2-shard × 2-worker tenants; a
        // third needs 12 in total and must be rolled back with the
        // accurate requirement in the error.
        let c = TenantId::new("c");
        let plane = ServicePlane::builder()
            .tenant(TenantId::new("a"), 2, two_workers)
            .tenant(TenantId::new("b"), 2, two_workers)
            .default_factory(two_workers)
            .global_eviction_budget(8)
            .build()
            .expect("plane builds");
        for err in [
            plane.join_with(&c, 2, two_workers).unwrap_err(),
            plane.join(&c, Some(2)).unwrap_err(),
        ] {
            assert!(matches!(
                err,
                ServiceError::BadGlobalBudget {
                    budget: 8,
                    required: 12
                }
            ));
        }
        assert_eq!(plane.tenants().len(), 2, "failed join must roll back");
        assert_eq!(
            plane.ingest(&c, clf("10.0.0.1", 0)),
            IngestOutcome::UnknownTenant
        );
        assert_eq!(plane.stats().eviction_budget, Some(8));
        // Once a tenant leaves there is room again.
        plane.leave(&TenantId::new("b")).expect("served");
        plane.join(&c, Some(2)).expect("budget covers the new set");
    }

    #[test]
    fn rebalance_follows_live_client_share() {
        let (a, b) = (TenantId::new("a"), TenantId::new("b"));
        let plane = ServicePlane::builder()
            .tenant(a.clone(), 1, factory)
            .tenant(b.clone(), 1, factory)
            .global_eviction_budget(100)
            .build()
            .expect("plane builds");
        // All the traffic goes to tenant a; b stays idle.
        for i in 0..200u32 {
            plane.ingest(&a, clf(&format!("10.3.{}.{}", i / 50, i % 50 + 1), i));
        }
        let _ = plane.drain_all();
        let applied = plane.rebalance_eviction();
        let (ref ta, budget_a) = applied[0];
        let (ref tb, budget_b) = applied[1];
        assert_eq!((ta, tb), (&a, &b));
        assert!(
            budget_a > budget_b,
            "the busy tenant must out-apportion the idle one ({budget_a} vs {budget_b})"
        );
        assert!(budget_b >= 1, "every tenant keeps its floor");
        assert_eq!(budget_a + budget_b, 100, "the whole budget is granted");
        assert_eq!(plane.stats().eviction_budget, Some(100));
    }

    #[test]
    fn apportion_is_exact_and_floored() {
        // Spare 94 over shares 3:1 → floors 1,1 then 70,23 +1 remainder.
        let out = apportion_budget(96, &[1, 1], &[300, 100]);
        assert_eq!(out.iter().sum::<usize>(), 96);
        assert!(out[0] > out[1]);
        assert!(out[1] >= 1);
        // All-zero shares: even split with front-loaded remainder.
        assert_eq!(apportion_budget(10, &[1, 1, 1], &[0, 0, 0]), vec![4, 3, 3]);
        // Budget below the floors: floors win (callers validate first).
        assert_eq!(apportion_budget(1, &[2, 2], &[0, 0]), vec![2, 2]);
    }

    #[test]
    fn stats_json_is_well_formed_enough_to_round_trip_fields() {
        let shop = TenantId::new("shop \"quoted\"");
        let plane = ServicePlane::builder()
            .tenant(shop.clone(), 1, factory)
            .build()
            .expect("plane builds");
        let json = plane.stats().to_json();
        assert!(json.contains("\"tenant\":\"shop \\\"quoted\\\"\""));
        assert!(json.contains("\"eviction_budget\":null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
