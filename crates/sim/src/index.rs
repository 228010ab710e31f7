//! Machine-side free-capacity index: per-resource bucketed availability
//! classes maintained incrementally from state mutations, so cold-pass
//! placement queries touch only the machines that can matter instead of
//! scanning the cluster (DESIGN.md §13).
//!
//! The index stores, per machine, a cheap **upper bound** `ub(m)` on the
//! scheduler-visible availability vector, valid for *every* availability
//! mode the view can serve:
//!
//! * down machine → availability is the zero vector → `ub = 0`;
//! * `reclaim_idle = false` → tracker-unaware availability is exactly
//!   `capacity − allocated` and tracker-aware availability subtracts a
//!   further non-negative `external_reported`, so `ub = capacity −
//!   allocated` bounds both;
//! * `reclaim_idle = true` → tracker-aware availability is `capacity −
//!   (usage_reported + ramp-up allowance)` with the memory component
//!   floored by the allocation ledger. Allowances are non-negative, so
//!   `capacity − usage_adj` (usage with memory replaced by allocated
//!   memory) bounds it at all times; the component-wise max with
//!   `capacity − allocated` additionally covers tracker-unaware readers.
//!
//! Because `ub(m) ≥ availability(m)` component-wise, any query of the form
//! "availability ≥ x" can be answered from a **superset** computed on the
//! buckets and then filtered exactly — pruning is sound, never lossy.
//! Buckets are power-of-two classes of the `ub` component (65 per
//! resource: one for `≤ 0`, one per clamped binary exponent), so a
//! threshold query unions a bucket suffix instead of scanning machines.
//!
//! Every query path is pinned decision-identical to the linear-scan
//! oracle by `sim/tests/prop_index.rs` and the `scale` experiment's
//! internal assertion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use tetris_resources::{Resource, ResourceVec, FIT_TOLERANCE, NUM_RESOURCES};

use crate::cluster::MachineId;

/// Buckets per resource: bucket 0 holds `ub ≤ 0` (and NaN, defensively);
/// bucket `k ∈ [1, 64]` holds values with clamped binary exponent
/// `k − 17`, i.e. `x ∈ [2^(k−17), 2^(k−16))` for interior buckets.
pub(crate) const NUM_BUCKETS: usize = 65;
const EXP_MIN: i32 = -16;
const EXP_MAX: i32 = 47;

/// Bucket of a non-negative quantity. Monotone: `x ≤ y ⇒ bucket_of(x) ≤
/// bucket_of(y)`, which is what makes suffix unions sound.
#[inline]
pub(crate) fn bucket_of(x: f64) -> usize {
    if !(x > 0.0) {
        return 0; // ≤ 0 or NaN
    }
    // Biased exponent from the bit pattern: exact floor(log2) for normal
    // positives, no libm and fully deterministic. Subnormals give e =
    // −1023 and clamp to the bottom interior bucket; +inf gives e = 1024
    // and clamps to the top.
    let e = ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (e.clamp(EXP_MIN, EXP_MAX) + 1 - EXP_MIN) as usize
}

/// `2^e` without libm (e within the clamp range, so always normal).
#[inline]
fn two_pow(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Exclusive upper bound of every value in buckets `< k` (for interior
/// `k`): members of bucket `j ≤ k − 1` satisfy `x < 2^(k − 17)`.
#[inline]
fn below_bucket_bound(k: usize) -> f64 {
    two_pow(k as i32 - 17)
}

/// Hit/prune counters, accumulated with interior mutability so `&self`
/// query paths can report. Drained once per run into the obs registry.
#[derive(Debug, Default)]
pub(crate) struct IndexStats {
    /// Indexed candidate/floor queries served.
    pub queries: AtomicU64,
    /// Considered machines excluded from query results by the index.
    pub pruned: AtomicU64,
    /// Machines returned across indexed queries.
    pub returned: AtomicU64,
    /// Availability evaluations performed by envelope descents.
    pub env_visits: AtomicU64,
}

/// A drained, plain-integer snapshot of [`IndexStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStatsSnapshot {
    /// Indexed candidate/floor queries served.
    pub queries: u64,
    /// Considered machines excluded from query results by the index.
    pub pruned: u64,
    /// Machines returned across indexed queries.
    pub returned: u64,
    /// Availability evaluations performed by envelope descents.
    pub env_visits: u64,
}

/// Cached per-(resource, bucket) maximum of the considered members' `ub`
/// component, plus its argmax machine. Maintained O(1) by [`MachineIndex::
/// refresh`] — marked stale (never rescanned eagerly) when the cached
/// argmax leaves the bucket, drops its value, or stops being considered —
/// and lazily revalidated by the envelope descent. Atomics exist so that
/// `&self` query methods can revalidate the cache, including the sharded
/// heartbeat's concurrent read-only fan-out (`crate::sharded`): all
/// mutation happens between queries (`refresh` takes `&mut self`), and
/// concurrent revalidations recompute identical values from `ub`, so any
/// interleaving of their stores leaves the same cache. The `stale` flag
/// is released/acquired so a reader seeing `stale == false` also sees
/// the matching `ub`/`mi` stores. Scoped (ledger-adjusted) availability
/// closures are safe here too: the cache only ever holds `ub`-derived
/// values, never closure results.
#[derive(Debug)]
struct BucketMax {
    /// Bit pattern of the max `ub` component (`NEG_INFINITY` when the
    /// bucket has no considered member).
    ub: AtomicU64,
    /// Machine achieving it (`u32::MAX` when none).
    mi: AtomicU32,
    stale: AtomicBool,
}

impl Default for BucketMax {
    fn default() -> Self {
        BucketMax {
            ub: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            mi: AtomicU32::new(u32::MAX),
            stale: AtomicBool::new(false),
        }
    }
}

impl BucketMax {
    fn reset(&self) {
        self.ub
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        self.mi.store(u32::MAX, Ordering::Relaxed);
        self.stale.store(false, Ordering::Relaxed);
    }
}

/// The free-capacity index. Lives inside `SimState`; refreshed by the
/// state mutators that move a machine's ledger, tracker report, crash
/// flag or suspicion (the PR-5 event taxonomy's touch points).
#[derive(Debug)]
pub(crate) struct MachineIndex {
    /// False ⇒ the index holds nothing and every query must use the
    /// linear-scan path (`SimConfig::machine_index = false`).
    pub enabled: bool,
    /// Availability upper bound per machine (may be negative).
    ub: Vec<ResourceVec>,
    /// Current bucket per machine per resource.
    bkt: Vec<[u8; NUM_RESOURCES]>,
    /// Position of each machine inside its bucket list, per resource.
    pos: Vec<[u32; NUM_RESOURCES]>,
    /// `buckets[r][b]` = machines whose `ub[r]` falls in bucket `b`.
    buckets: Vec<Vec<Vec<u32>>>,
    /// `bmax[r][b]` = cached max `ub[r]` over bucket `b`'s considered
    /// members (see [`BucketMax`]) — what lets the envelope descent skip
    /// or settle a bucket without scanning its membership.
    bmax: Vec<Vec<BucketMax>>,
    /// `!down && !suspect` mirror.
    considered: Vec<bool>,
    n_considered: usize,
    /// Distinct machine capacity vectors, first-seen over machine ids.
    classes: Vec<ResourceVec>,
    class_of: Vec<u32>,
    /// Considered machines per capacity class (for the capacity
    /// envelope without a scan).
    class_considered: Vec<usize>,
    pub stats: IndexStats,
}

impl MachineIndex {
    /// An empty, disabled index (no memory beyond the struct).
    pub(crate) fn disabled() -> Self {
        MachineIndex {
            enabled: false,
            ub: Vec::new(),
            bkt: Vec::new(),
            pos: Vec::new(),
            buckets: Vec::new(),
            bmax: Vec::new(),
            considered: Vec::new(),
            n_considered: 0,
            classes: Vec::new(),
            class_of: Vec::new(),
            class_considered: Vec::new(),
            stats: IndexStats::default(),
        }
    }

    /// Build the index skeleton for `capacities.len()` machines: capacity
    /// classes are fixed for the simulation's lifetime, bucket contents
    /// start empty and are filled by the caller's initial refresh sweep.
    pub(crate) fn new(capacities: &[ResourceVec]) -> Self {
        let n = capacities.len();
        let mut classes: Vec<ResourceVec> = Vec::new();
        let mut class_of = Vec::with_capacity(n);
        for cap in capacities {
            let cls = match classes.iter().position(|c| c == cap) {
                Some(i) => i,
                None => {
                    classes.push(*cap);
                    classes.len() - 1
                }
            };
            class_of.push(cls as u32);
        }
        let class_considered = vec![0usize; classes.len()];
        MachineIndex {
            enabled: true,
            ub: vec![ResourceVec::zero(); n],
            bkt: vec![[0u8; NUM_RESOURCES]; n],
            pos: vec![[0u32; NUM_RESOURCES]; n],
            buckets: (0..NUM_RESOURCES)
                .map(|_| vec![Vec::new(); NUM_BUCKETS])
                .collect(),
            bmax: (0..NUM_RESOURCES)
                .map(|_| (0..NUM_BUCKETS).map(|_| BucketMax::default()).collect())
                .collect(),
            considered: vec![false; n],
            n_considered: 0,
            classes,
            class_of,
            class_considered,
            stats: IndexStats::default(),
        }
    }

    /// Seed bucket membership: every machine starts in bucket 0 of every
    /// resource; the caller's refresh sweep moves it where it belongs.
    pub(crate) fn seed(&mut self) {
        for r in 0..NUM_RESOURCES {
            self.buckets[r][0].clear();
            for mi in 0..self.ub.len() {
                self.pos[mi][r] = self.buckets[r][0].len() as u32;
                self.bkt[mi][r] = 0;
                self.buckets[r][0].push(mi as u32);
            }
            for bm in &self.bmax[r] {
                bm.reset();
            }
        }
    }

    /// Refresh one machine's entry: new availability upper bound and
    /// considered flag. O(1) amortized per resource (bucket swap-remove).
    pub(crate) fn refresh(&mut self, mi: usize, ub: ResourceVec, considered: bool) {
        if !self.enabled {
            return;
        }
        self.ub[mi] = ub;
        for r in Resource::ALL {
            let ri = r.index();
            let u = ub.get(r);
            let nb = bucket_of(u) as u8;
            let ob = self.bkt[mi][ri];
            if nb != ob {
                // Leaving a bucket whose cached argmax we were stales
                // its max cache (revalidated lazily at query time).
                let bm = &mut self.bmax[ri][ob as usize];
                if !*bm.stale.get_mut() && *bm.mi.get_mut() == mi as u32 {
                    *bm.stale.get_mut() = true;
                }
                // Swap-remove from the old bucket, fixing the moved
                // member.
                let p = self.pos[mi][ri] as usize;
                let old = &mut self.buckets[ri][ob as usize];
                let last = old.pop().expect("bucket member");
                if last as usize != mi {
                    old[p] = last;
                    self.pos[last as usize][ri] = p as u32;
                }
                let new = &mut self.buckets[ri][nb as usize];
                self.pos[mi][ri] = new.len() as u32;
                new.push(mi as u32);
                self.bkt[mi][ri] = nb;
            }
            // Fold the (possibly unchanged-bucket) new value into the
            // destination bucket's max cache under the *new* considered
            // flag. Keeping an equal-valued incumbent argmax makes the
            // cache deterministic for a given operation history.
            let bm = &mut self.bmax[ri][nb as usize];
            if !*bm.stale.get_mut() {
                let bmi = *bm.mi.get_mut();
                let bub = f64::from_bits(*bm.ub.get_mut());
                if considered {
                    if bmi == mi as u32 {
                        if u >= bub {
                            *bm.ub.get_mut() = u.to_bits();
                        } else {
                            // The argmax itself dropped: another member
                            // may now hold the max.
                            *bm.stale.get_mut() = true;
                        }
                    } else if u > bub {
                        *bm.ub.get_mut() = u.to_bits();
                        *bm.mi.get_mut() = mi as u32;
                    }
                } else if bmi == mi as u32 {
                    *bm.stale.get_mut() = true;
                }
            }
        }
        if considered != self.considered[mi] {
            self.considered[mi] = considered;
            let cls = self.class_of[mi] as usize;
            if considered {
                self.n_considered += 1;
                self.class_considered[cls] += 1;
            } else {
                self.n_considered -= 1;
                self.class_considered[cls] -= 1;
            }
        }
    }

    /// Number of machines that are neither down nor suspect.
    pub(crate) fn considered_count(&self) -> usize {
        self.n_considered
    }

    /// Component-wise maximum capacity over considered machines, via the
    /// per-class considered counts (no machine scan).
    pub(crate) fn capacity_envelope(&self) -> ResourceVec {
        let mut env = ResourceVec::zero();
        for (cls, cap) in self.classes.iter().enumerate() {
            if self.class_considered[cls] > 0 {
                env = env.max(cap);
            }
        }
        env
    }

    /// Component-wise maximum of `clamp_non_negative(availability)` over
    /// considered machines — **exact**, not a bound. Per resource the
    /// buckets are descended from the top, best-`ub` member first, and
    /// the descent stops once the running maximum dominates the tightest
    /// remaining upper bound (`avail ≤ ub`). A bucket holding the whole
    /// cluster therefore costs one availability evaluation when its best
    /// member's availability meets its bound (the common case: an
    /// untouched resource), never a full scan of evaluations. `avail` is
    /// consulted once per distinct machine (memoized across the six
    /// descents) and must be the view's availability for the caller's
    /// tracker mode.
    pub(crate) fn availability_envelope(
        &self,
        mut avail: impl FnMut(usize) -> ResourceVec,
    ) -> ResourceVec {
        let mut env = ResourceVec::zero();
        let mut memo: HashMap<u32, ResourceVec> = HashMap::new();
        let mut visits = 0u64;
        // Best-first scratch: max-heap keyed on the `ub` component's bit
        // pattern (order-preserving for the positive values interior
        // buckets hold), machine id ascending on key ties so the visit
        // order — and the `env_visits` counter — is deterministic.
        let mut scratch: Vec<(u64, std::cmp::Reverse<u32>)> = Vec::new();
        for r in Resource::ALL {
            let ri = r.index();
            // Bucket 0 members have ub[r] ≤ 0 ⇒ clamped avail[r] = 0 ≤
            // env[r] (env starts at 0), so the descent skips bucket 0.
            for b in (1..NUM_BUCKETS).rev() {
                if env.get(r) >= below_bucket_bound(b + 1) {
                    // Everything in buckets ≤ b sits strictly below the
                    // running maximum for this resource.
                    break;
                }
                let members = &self.buckets[ri][b];
                if members.is_empty() {
                    continue;
                }
                // Fast path: the bucket's cached max-ub member (kept
                // fresh by `refresh`, revalidated here if stale);
                // evaluating it alone settles the bucket whenever its
                // availability meets its bound (an untouched resource, a
                // freshly freed machine) — no membership scan, no heap.
                let bm = &self.bmax[ri][b];
                let (maxub, bmi);
                if bm.stale.load(Ordering::Acquire) {
                    let (mut mu, mut mmi) = (f64::NEG_INFINITY, u32::MAX);
                    for &mi in members {
                        if !self.considered[mi as usize] {
                            continue;
                        }
                        let u = self.ub[mi as usize].get(r);
                        if u > mu {
                            mu = u;
                            mmi = mi;
                        }
                    }
                    bm.ub.store(mu.to_bits(), Ordering::Relaxed);
                    bm.mi.store(mmi, Ordering::Relaxed);
                    // Release pairs with the Acquire above: a concurrent
                    // reader that observes `stale == false` also observes
                    // the ub/mi stores of the revalidation that cleared it
                    // (all revalidations of one epoch store identical
                    // values, so racing writers are benign).
                    bm.stale.store(false, Ordering::Release);
                    (maxub, bmi) = (mu, mmi);
                } else {
                    maxub = f64::from_bits(bm.ub.load(Ordering::Relaxed));
                    bmi = bm.mi.load(Ordering::Relaxed);
                }
                if env.get(r) >= maxub || bmi == u32::MAX {
                    continue;
                }
                let a = *memo.entry(bmi).or_insert_with(|| {
                    visits += 1;
                    avail(bmi as usize).clamp_non_negative()
                });
                // Maxing the full vector is sound for every component
                // (each is ≤ its own true maximum) and exact for `r`
                // once this resource's descent ends.
                env = env.max(&a);
                if env.get(r) >= maxub {
                    continue;
                }
                // Slow path: the best member's availability fell short of
                // its bound. Order the rest best-first and evaluate until
                // the running max dominates the tightest remaining bound.
                scratch.clear();
                scratch.extend(members.iter().filter_map(|&mi| {
                    let m = mi as usize;
                    if mi == bmi || !self.considered[m] {
                        return None;
                    }
                    let u = self.ub[m].get(r);
                    (u > env.get(r)).then_some((u.to_bits(), std::cmp::Reverse(mi)))
                }));
                let mut heap = std::collections::BinaryHeap::from(std::mem::take(&mut scratch));
                while let Some((ubits, std::cmp::Reverse(mi))) = heap.pop() {
                    if env.get(r) >= f64::from_bits(ubits) {
                        // Every remaining member's ub[r] — and so its
                        // avail[r] — sits at or below the running max.
                        break;
                    }
                    let a = *memo.entry(mi).or_insert_with(|| {
                        visits += 1;
                        avail(mi as usize).clamp_non_negative()
                    });
                    env = env.max(&a);
                }
                scratch = heap.into_vec();
            }
        }
        self.stats.env_visits.fetch_add(visits, Ordering::Relaxed);
        env
    }

    /// Considered machines whose availability upper bound meets the
    /// cheapest-candidate floor on CPU **and** memory, ascending by id —
    /// a superset of the machines whose true availability meets it.
    /// Served from the more selective of the two bucket suffixes.
    pub(crate) fn floor_candidates_into(
        &self,
        min_cpu: f64,
        min_mem: f64,
        out: &mut Vec<MachineId>,
    ) {
        out.clear();
        let cpu = (Resource::Cpu.index(), bucket_of(min_cpu));
        let mem = (Resource::Mem.index(), bucket_of(min_mem));
        let (ri, from) = if self.suffix_len(cpu) <= self.suffix_len(mem) {
            cpu
        } else {
            mem
        };
        let meets = |mi: usize| {
            let (considered, ub) = (self.considered[mi], &self.ub[mi]);
            considered && ub.get(Resource::Cpu) >= min_cpu && ub.get(Resource::Mem) >= min_mem
        };
        let members = self.suffix(ri, from).map(|mi| mi as usize);
        out.extend(members.filter(|&mi| meets(mi)).map(MachineId));
        out.sort_unstable();
        self.count_query(out.len());
    }

    /// Considered machines whose availability upper bound dominates
    /// `demand` component-wise, ascending by id — a superset of the
    /// machines `demand` truly fits on. The bucket suffix is taken on
    /// the most selective positive-demand resource.
    pub(crate) fn fits_superset_into(&self, demand: &ResourceVec, out: &mut Vec<u32>) {
        out.clear();
        // Pick the resource whose suffix has the fewest members.
        let mut best: Option<(usize, usize, usize)> = None; // (count, ri, from)
        for r in Resource::ALL {
            let d = demand.get(r);
            if !(d > 0.0) {
                continue;
            }
            // From the bucket of the least availability `fits_within`
            // admits: its tolerance reaches below a power of two.
            let least = (d / (1.0 + FIT_TOLERANCE)).min(d - FIT_TOLERANCE);
            let (ri, from) = (r.index(), bucket_of(least));
            let count = self.suffix_len((ri, from));
            if best.is_none_or(|(c, ..)| count < c) {
                best = Some((count, ri, from));
            }
        }
        match best {
            Some((_, ri, from)) => {
                out.extend(self.suffix(ri, from).filter(|&mi| {
                    let m = mi as usize;
                    self.considered[m] && demand.fits_within(&self.ub[m])
                }));
                out.sort_unstable();
            }
            None => {
                // Zero demand fits anywhere a scheduler may place.
                out.extend(
                    (0..self.considered.len() as u32).filter(|&mi| self.considered[mi as usize]),
                );
            }
        }
        self.count_query(out.len());
    }

    /// The members of resource `ri`'s buckets from `from` up.
    fn suffix(&self, ri: usize, from: usize) -> impl Iterator<Item = u32> + '_ {
        self.buckets[ri][from..].iter().flatten().copied()
    }

    fn suffix_len(&self, (ri, from): (usize, usize)) -> usize {
        self.buckets[ri][from..].iter().map(Vec::len).sum()
    }

    /// Count one candidate query and the `returned` machines it returned.
    fn count_query(&self, returned: usize) {
        let stats = &self.stats;
        stats.queries.fetch_add(1, Ordering::Relaxed);
        let pruned = (self.n_considered - returned) as u64;
        stats.pruned.fetch_add(pruned, Ordering::Relaxed);
        stats.returned.fetch_add(returned as u64, Ordering::Relaxed);
    }

    /// Drain the hit/prune counters (engine end-of-run, probes).
    pub(crate) fn take_stats(&self) -> IndexStatsSnapshot {
        IndexStatsSnapshot {
            queries: self.stats.queries.swap(0, Ordering::Relaxed),
            pruned: self.stats.pruned.swap(0, Ordering::Relaxed),
            returned: self.stats.returned.swap(0, Ordering::Relaxed),
            env_visits: self.stats.env_visits.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_monotone_and_clamped() {
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(f64::INFINITY), NUM_BUCKETS - 1);
        let mut last = 0;
        let mut x = 1e-12;
        while x < 1e16 {
            let b = bucket_of(x);
            assert!(b >= last, "bucket_of must be monotone at {x}");
            assert!(b < NUM_BUCKETS);
            last = b;
            x *= 1.7;
        }
        // Interior bucket bound: members of buckets < k are < 2^(k−17).
        for k in 2..NUM_BUCKETS {
            let bound = below_bucket_bound(k);
            assert!(
                bucket_of(bound) >= k,
                "bound {bound} must not fall below bucket {k}"
            );
            assert!(bucket_of(bound * 0.99) < k + 1);
        }
    }

    #[test]
    fn refresh_moves_between_buckets_and_counts_considered() {
        let caps = vec![ResourceVec::splat(8.0); 4];
        let mut idx = MachineIndex::new(&caps);
        idx.seed();
        assert_eq!(idx.considered_count(), 0);
        for mi in 0..4 {
            idx.refresh(mi, ResourceVec::splat(8.0), true);
        }
        assert_eq!(idx.considered_count(), 4);
        assert_eq!(idx.capacity_envelope(), ResourceVec::splat(8.0));
        let mut out = Vec::new();
        idx.floor_candidates_into(4.0, 4.0, &mut out);
        assert_eq!(out, [0, 1, 2, 3].map(MachineId));
        // Drop machine 2 below the floor; mark machine 3 unconsidered.
        idx.refresh(2, ResourceVec::splat(1.0), true);
        idx.refresh(3, ResourceVec::splat(8.0), false);
        idx.floor_candidates_into(4.0, 4.0, &mut out);
        assert_eq!(out, [0, 1].map(MachineId));
        assert_eq!(idx.considered_count(), 3);
        let env = idx.availability_envelope(|mi| idx.ub[mi]);
        assert_eq!(env, ResourceVec::splat(8.0));
    }

    #[test]
    fn fits_superset_handles_zero_and_infinite_demand() {
        let caps = vec![ResourceVec::splat(8.0); 3];
        let mut idx = MachineIndex::new(&caps);
        idx.seed();
        for mi in 0..3 {
            idx.refresh(mi, ResourceVec::splat(2.0_f64.powi(mi as i32)), true);
        }
        let mut out = Vec::new();
        idx.fits_superset_into(&ResourceVec::zero(), &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        idx.fits_superset_into(&ResourceVec::splat(2.0), &mut out);
        assert_eq!(out, vec![1, 2]);
        idx.fits_superset_into(&ResourceVec::splat(f64::INFINITY), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fits_superset_keeps_what_the_fit_tolerance_admits() {
        // Releasing work leaves float dust: a free machine can read a hair
        // under its capacity, one bucket below a power-of-two demand that
        // `fits_within` still admits.
        let mut idx = MachineIndex::new(&[ResourceVec::splat(16.0)]);
        idx.seed();
        let dusty = ResourceVec::splat(16.0 - 4e-15);
        idx.refresh(0, dusty, true);
        let demand = ResourceVec::splat(16.0);
        assert!(demand.fits_within(&dusty));
        let mut out = Vec::new();
        idx.fits_superset_into(&demand, &mut out);
        assert_eq!(out, vec![0]);
    }
}
