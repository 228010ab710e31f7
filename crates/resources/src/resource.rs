//! The six resource dimensions of the Tetris model.

use std::fmt;

/// Number of resource dimensions tracked by the scheduler.
pub const NUM_RESOURCES: usize = 6;

/// A resource dimension (paper Tables 4 and 5).
///
/// CPU and memory are allocated only at the machine a task runs on; disk and
/// network bandwidth may additionally be consumed at *remote* machines that
/// hold the task's input (paper §3.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Resource {
    /// CPU, measured in cores (fractional cores allowed).
    Cpu,
    /// Memory, measured in bytes. A *space* resource: held at peak for the
    /// task's whole lifetime (paper §3.1 — allocating less than peak risks
    /// thrashing, so Tetris always allocates peak memory).
    Mem,
    /// Disk read bandwidth in bytes/second.
    DiskRead,
    /// Disk write bandwidth in bytes/second.
    DiskWrite,
    /// Network ingress bandwidth (into the machine) in bytes/second.
    NetIn,
    /// Network egress bandwidth (out of the machine) in bytes/second.
    NetOut,
}

/// Whether a resource is consumed over time or merely occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Occupied for the task's lifetime (memory). The amount held does not
    /// determine how fast the task runs.
    Space,
    /// Consumed at a rate; the allocated rate divides the task's total work
    /// along this dimension to yield a completion-time term (paper eqn. 5).
    Rate,
}

impl Resource {
    /// All resources, in canonical index order.
    pub const ALL: [Resource; NUM_RESOURCES] = [
        Resource::Cpu,
        Resource::Mem,
        Resource::DiskRead,
        Resource::DiskWrite,
        Resource::NetIn,
        Resource::NetOut,
    ];

    /// Canonical index of this resource in a [`crate::ResourceVec`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Mem => 1,
            Resource::DiskRead => 2,
            Resource::DiskWrite => 3,
            Resource::NetIn => 4,
            Resource::NetOut => 5,
        }
    }

    /// Space vs rate classification.
    #[inline]
    pub const fn kind(self) -> ResourceKind {
        match self {
            Resource::Mem => ResourceKind::Space,
            _ => ResourceKind::Rate,
        }
    }

    /// Short machine-readable label ("cpu", "mem", ...).
    pub const fn label(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu",
            Resource::Mem => "mem",
            Resource::DiskRead => "disk_r",
            Resource::DiskWrite => "disk_w",
            Resource::NetIn => "net_in",
            Resource::NetOut => "net_out",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, r) in Resource::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn only_memory_is_space() {
        for r in Resource::ALL {
            match r {
                Resource::Mem => assert_eq!(r.kind(), ResourceKind::Space),
                _ => assert_eq!(r.kind(), ResourceKind::Rate),
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Resource::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_RESOURCES);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Resource::DiskRead.to_string(), "disk_r");
    }
}
