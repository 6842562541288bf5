//! Tenant identity for multi-tenant deployments.
//!
//! The paper's diverse-detector architecture protects *one* monitored
//! site; a shared scraping-defense service protects many properties at
//! once, each with its own log stream, detector state and calibration.
//! [`TenantId`] is the identity that threads through every layer of that
//! service: each source pump feeds one tenant, the service plane
//! routes on it, per-client state tables can scope their keys with it
//! ([`TenantClientKey`]), and adjudicated alerts carry it to the sinks.
//!
//! A `TenantId` is an interned name: cheap to clone (one atomic
//! reference-count bump), compared and hashed by its string content, so
//! two independently constructed ids for the same tenant are equal.

use std::fmt;
use std::sync::Arc;

use crate::session::ClientKey;

/// The identity of one monitored property (site, API, brand) in a
/// multi-tenant detection service.
///
/// ```
/// use divscrape_detect::TenantId;
///
/// let a = TenantId::new("shop-eu");
/// let b = TenantId::new("shop-eu");
/// assert_eq!(a, b);               // identity is the name
/// assert_eq!(a.as_str(), "shop-eu");
/// assert_eq!(a.to_string(), "shop-eu");
/// let c = a.clone();              // cheap: shared allocation
/// assert_eq!(a, c);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant id with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId::new(name)
    }
}

/// A client key scoped to its tenant: the key type shared state tables
/// use when one table serves several tenants, so two tenants observing
/// the same address + user-agent never share (or evict) each other's
/// state.
///
/// ```
/// use divscrape_detect::{StateTable, EvictionConfig, TenantClientKey, TenantId};
/// use std::net::Ipv4Addr;
///
/// let mut table: StateTable<TenantClientKey, u32> =
///     StateTable::new(EvictionConfig::capacity(10));
/// let client = (Ipv4Addr::new(10, 0, 0, 1), 7u64);
/// let a = (TenantId::new("shop-eu"), client);
/// let b = (TenantId::new("shop-us"), client);
/// table.insert(a.clone(), 0, 1);
/// table.insert(b.clone(), 0, 2);
/// // Same client identity, distinct tenants: distinct state.
/// assert_eq!(table.get(&a), Some(&1));
/// assert_eq!(table.get(&b), Some(&2));
/// ```
pub type TenantClientKey = (TenantId, ClientKey);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn identity_is_by_name() {
        let a = TenantId::new("alpha");
        let b = TenantId::from("alpha".to_owned());
        let c: TenantId = "bravo".into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c, "ordering follows the name");
        let mut map = HashMap::new();
        map.insert(a, 1);
        assert_eq!(map.get(&b), Some(&1));
    }
}
