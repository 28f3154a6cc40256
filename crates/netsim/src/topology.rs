//! The deployment's network topology: which link connects which pair of
//! sites.

use crate::link::{profiles, LinkSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Site identifier, mirroring `cloudburst_core::SiteId` without a dependency
/// cycle (netsim sits below core's consumers).
pub type Site = u16;

/// Conventional site numbers.
pub const LOCAL: Site = 0;
/// The cloud site.
pub const CLOUD: Site = 1;

/// The inter-site links. A cross-site chunk read, a control message and a
/// reduction-object push between two sites all ride the one link between
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Inter-site links, keyed by unordered pair (lo, hi).
    links: BTreeMap<(Site, Site), LinkSpec>,
}

impl Topology {
    /// An empty topology; populate with [`Topology::with_link`].
    #[must_use]
    pub fn new() -> Topology {
        Topology { links: BTreeMap::new() }
    }

    /// The paper's two-site deployment: a campus cluster (site 0) and AWS
    /// (site 1), joined by a commodity WAN.
    #[must_use]
    pub fn paper_testbed() -> Topology {
        Topology::new().with_link(LOCAL, CLOUD, profiles::wan())
    }

    /// Add (or replace) the inter-site link between `a` and `b`.
    #[must_use]
    pub fn with_link(mut self, a: Site, b: Site, spec: LinkSpec) -> Topology {
        self.links.insert(Self::key(a, b), spec);
        self
    }

    /// The link between two sites. Same-site traffic uses loopback; a pair
    /// with no link configured rides the WAN.
    #[must_use]
    pub fn link(&self, a: Site, b: Site) -> LinkSpec {
        if a == b {
            return profiles::loopback();
        }
        self.links.get(&Self::key(a, b)).copied().unwrap_or_else(profiles::wan)
    }

    fn key(a: Site, b: Site) -> (Site, Site) {
        (a.min(b), a.max(b))
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_site_is_loopback() {
        let t = Topology::paper_testbed();
        assert!(t.link(LOCAL, LOCAL).bandwidth >= 1e9);
        assert!(t.link(LOCAL, LOCAL).latency < 1e-6);
    }

    #[test]
    fn links_are_symmetric() {
        let t = Topology::paper_testbed();
        assert_eq!(t.link(LOCAL, CLOUD), t.link(CLOUD, LOCAL));
    }

    #[test]
    fn unknown_pairs_fall_back_to_wan() {
        let t = Topology::paper_testbed();
        assert_eq!(t.link(0, 7), profiles::wan());
        assert_eq!(Topology::new().link(LOCAL, CLOUD), profiles::wan());
    }

    #[test]
    fn builder_overrides_apply() {
        let fast = LinkSpec::new(1e-3, 1e9);
        let t = Topology::new().with_link(LOCAL, CLOUD, fast);
        assert_eq!(t.link(CLOUD, LOCAL), fast);
    }
}
