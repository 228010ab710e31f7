//! Static cluster description: machines, racks, capacities.

use tetris_resources::{MachineSpec, ResourceVec};

/// Identifier of a machine in the cluster (dense, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct MachineId(pub usize);

impl MachineId {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Static cluster configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ClusterConfig {
    /// Per-machine hardware specs. The simulator models each machine's
    /// last-hop link only (§4.1: modern cores have small
    /// over-subscription), so racks are not described.
    pub machines: Vec<MachineSpec>,
}

impl ClusterConfig {
    /// `n` identical machines.
    pub fn uniform(n: usize, spec: MachineSpec) -> Self {
        assert!(n > 0, "cluster needs at least one machine");
        ClusterConfig {
            machines: vec![spec; n],
        }
    }

    /// The paper's deployment cluster: 250 machines of the large profile.
    pub fn paper_large() -> Self {
        Self::uniform(250, MachineSpec::paper_large())
    }

    /// The paper's small cluster (§5.1): 30 machines of the small profile.
    pub fn paper_small() -> Self {
        Self::uniform(30, MachineSpec::paper_small())
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True if no machines (never valid for simulation).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Capacity vector of machine `m`.
    pub fn capacity(&self, m: MachineId) -> ResourceVec {
        self.machines[m.index()].capacity()
    }

    /// Aggregate capacity of the whole cluster.
    pub fn total_capacity(&self) -> ResourceVec {
        self.machines.iter().map(|s| s.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::Resource;

    #[test]
    fn uniform_builds_n() {
        let c = ClusterConfig::uniform(4, MachineSpec::paper_small());
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        let total = c.total_capacity();
        assert_eq!(total.get(Resource::Cpu), 16.0);
    }

    #[test]
    fn paper_clusters() {
        assert_eq!(ClusterConfig::paper_large().len(), 250);
        assert_eq!(ClusterConfig::paper_small().len(), 30);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_cluster_panics() {
        ClusterConfig::uniform(0, MachineSpec::paper_small());
    }
}
