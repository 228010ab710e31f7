//! Where each stored block's replicas live: one flat table of machine
//! ids, `stride` slots a block, and each block's replica count beside it.
//!
//! A block never holds more than `stride` replicas: binding draws exactly
//! `stride` of them, and evacuation (`faults`) removes the crashed one
//! before it adds a copy. So the table is two allocations whatever the
//! block count, not one a block (52 305 blocks on the Table 8 backlog).
//! A slot is a `u32` machine id and a count a `u8`, half and an eighth of
//! `usize`: 13 bytes a block at the default replication of 3, not 32.
//! Readers widen a slot back to a [`MachineId`] with [`widen`].

use std::fmt;
use std::ops::Index;

use crate::cluster::MachineId;

/// Block id → replica machines, ascending (see the module docs).
#[derive(Clone)]
pub(crate) struct Replicas {
    /// Slots a block: the replication factor the table was bound with.
    stride: usize,
    /// Block `b`'s replicas are `slots[b * stride..][..len[b]]`; the rest
    /// of its stride is free.
    slots: Vec<u32>,
    len: Vec<u8>,
}

/// A slot's machine.
#[inline]
pub(crate) fn widen(slot: u32) -> MachineId {
    MachineId(slot as usize)
}

/// A machine's slot value.
fn narrow(m: MachineId) -> u32 {
    u32::try_from(m.0).expect("machine id past u32")
}

impl Replicas {
    /// Bind `blocks` blocks to `replication` distinct machines each:
    /// `draw` until `replication` distinct machines came up, a repeat
    /// drawn again. `replication` is a handful, so the linear repeat test
    /// beats a set.
    pub(super) fn bind(
        blocks: usize,
        replication: usize,
        mut draw: impl FnMut() -> MachineId,
    ) -> Self {
        let width = u8::try_from(replication).expect("replication past u8");
        let mut slots = Vec::with_capacity(blocks * replication);
        for _ in 0..blocks {
            let start = slots.len();
            while slots.len() - start < replication {
                let m = narrow(draw());
                if !slots[start..].contains(&m) {
                    slots.push(m);
                }
            }
            slots[start..].sort_unstable();
        }
        Replicas {
            stride: replication,
            slots,
            len: vec![width; blocks],
        }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.len.len()
    }

    /// Whether block `b` has a replica on `m`.
    pub(crate) fn holds(&self, b: usize, m: MachineId) -> bool {
        self[b].iter().any(|&r| widen(r) == m)
    }

    /// Block `b`'s replicas, widened.
    pub(crate) fn machines(&self, b: usize) -> Vec<MachineId> {
        self[b].iter().map(|&r| widen(r)).collect()
    }

    /// Drop the replica at `pos` of block `b`; the rest keep their order.
    pub(super) fn remove(&mut self, b: usize, pos: usize) {
        let (start, n) = (b * self.stride, self.len[b] as usize);
        debug_assert!(pos < n);
        self.slots
            .copy_within(start + pos + 1..start + n, start + pos);
        self.len[b] -= 1;
    }

    /// Add machine `m` to block `b`, which has a free slot and does not
    /// hold `m`; the block stays ascending.
    pub(super) fn insert(&mut self, b: usize, m: MachineId) {
        let (start, n) = (b * self.stride, self.len[b] as usize);
        debug_assert!(n < self.stride && !self.holds(b, m));
        self.slots[start + n] = narrow(m);
        self.slots[start..=start + n].sort_unstable();
        self.len[b] += 1;
    }

    /// A table holding `lists`, each ascending, in a stride of the
    /// longest.
    #[cfg(test)]
    pub(crate) fn from_lists(lists: &[&[MachineId]]) -> Self {
        let stride = lists.iter().map(|l| l.len()).max().unwrap_or(0);
        let mut slots = vec![0; lists.len() * stride];
        for (b, l) in lists.iter().enumerate() {
            for (slot, &m) in slots[b * stride..].iter_mut().zip(l.iter()) {
                *slot = narrow(m);
            }
        }
        Replicas {
            stride,
            slots,
            len: lists.iter().map(|l| l.len() as u8).collect(),
        }
    }
}

impl Index<usize> for Replicas {
    type Output = [u32];

    fn index(&self, b: usize) -> &[u32] {
        &self.slots[b * self.stride..][..self.len[b] as usize]
    }
}

impl fmt::Debug for Replicas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|b| self.machines(b)))
            .finish()
    }
}

/// Block by block against any list of lists (a test's expected table).
#[cfg(test)]
impl<L: AsRef<[MachineId]>> PartialEq<Vec<L>> for Replicas {
    fn eq(&self, other: &Vec<L>) -> bool {
        self.len() == other.len() && (0..self.len()).all(|b| self.machines(b) == other[b].as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[usize]) -> Vec<MachineId> {
        xs.iter().copied().map(MachineId).collect()
    }

    #[test]
    fn remove_and_insert_keep_each_block_ascending_in_its_stride() {
        let (a, b) = (ids(&[1, 4, 7]), ids(&[0, 2, 9]));
        let mut t = Replicas::from_lists(&[&a, &b]);
        // Every position of the first block, its neighbour untouched.
        for pos in 0..3 {
            let mut u = t.clone();
            u.remove(0, pos);
            let mut want = a.clone();
            want.remove(pos);
            assert_eq!(u, vec![want, b.clone()], "remove at {pos}");
        }
        t.remove(0, 1);
        t.insert(0, MachineId(0));
        assert_eq!(t, vec![ids(&[0, 1, 7]), b.clone()]);
        t.remove(1, 2);
        t.insert(1, MachineId(5));
        assert_eq!(t, vec![ids(&[0, 1, 7]), ids(&[0, 2, 5])]);
        t.remove(1, 0);
        t.remove(1, 0);
        t.insert(1, MachineId(3));
        assert_eq!(t, vec![ids(&[0, 1, 7]), ids(&[3, 5])]);
        assert_eq!(
            format!("{t:?}"),
            "[[MachineId(0), MachineId(1), MachineId(7)], [MachineId(3), MachineId(5)]]"
        );
    }
}
