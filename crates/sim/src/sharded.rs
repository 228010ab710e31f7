//! Omega-style sharded multi-scheduler: optimistic parallel placement
//! over shared cluster state (DESIGN.md §14).
//!
//! [`ShardedScheduler`] wraps N inner [`SchedulerPolicy`] instances, each
//! owning a deterministic hash partition of the job space. One
//! `schedule()` call from the engine becomes a fan-out / commit pipeline:
//!
//! 1. every shard with work runs its inner policy's `schedule()` pass
//!    concurrently on the deterministic worker pool (`crate::pool`),
//!    against a read-only [`ClusterView`] scoped to its own partition;
//! 2. proposals are committed *serially* in shard order, each charged to
//!    one [`WorkingLedger`] — what this heartbeat has already accepted —
//!    that the scoped views read. A proposal whose placement no longer
//!    fits (a racing shard won the machine) is rejected and counted as a
//!    conflict; a preemptive one is charged after its victims' local
//!    allocations are credited to its target, once the engine's eviction
//!    rules admit them and no earlier commit evicted one of them;
//! 3. shards that lost at least one proposal retry within the same
//!    heartbeat against the updated ledger, for at most
//!    [`MAX_RETRY_ROUNDS`] rounds — and only when a cheap commit-time
//!    feasibility check says a rejected task could still fit somewhere
//!    (`retry_could_place`), so fully-contended heartbeats don't pay for
//!    retry passes that would place nothing.
//!
//! Shard workers only ever *read* shared state: all mutation flows
//! through the engine applying the committed assignment batch after
//! `schedule()` returns (`scripts/check.sh` greps this module to keep it
//! that way). Determinism holds because the pool delivers results in
//! submission order, commits iterate shards in index order, and the
//! job → shard hash is a pure function of (job id, seed) — parallelism
//! changes wall-clock only, never output.

use std::collections::HashSet;
use std::time::Instant;

use tetris_obs::{names, MetricsRegistry};
use tetris_workload::{JobId, TaskUid};

use crate::cluster::MachineId;
use crate::pool::pool_map;
use crate::state::PlacementPlan;
use crate::view::{Assignment, ClusterView, SchedulerPolicy, ShardScope, WorkingLedger};

/// Bound on intra-heartbeat retry rounds for shards whose proposals lost
/// a commit race. The engine's own schedule loop provides further rounds
/// against true (post-apply) state, so a small bound loses nothing.
pub(crate) const MAX_RETRY_ROUNDS: usize = 4;

/// Job-partition block size: consecutive job ids are assigned to shards
/// in blocks of this many, not one by one. Job state lives in id-indexed
/// tables, so a shard sweeping its partition touches runs of
/// [`OWNER_BLOCK`] adjacent entries instead of isolated cache lines —
/// measured at ~1.4× on the per-shard pass at 50 k jobs / 4 shards
/// (single-id hashing made every table access a miss and capped the
/// whole fan-out below 2×). Load balance needs active blocks ≫ shards;
/// workloads smaller than a few blocks degenerate to one busy shard,
/// which is skewed but correct (sharding is a throughput device for
/// large clusters, not a semantic one).
pub(crate) const OWNER_BLOCK: usize = 64;

/// The shard owning `job`: a splitmix64-style hash of the job's
/// [`OWNER_BLOCK`] block index folded with the stable partitioning
/// `seed`, reduced mod `shards`. A pure function — the partition bucketing
/// and every test that checks it must agree on ownership, and re-runs
/// with the same seed must re-partition identically.
#[inline]
pub(crate) fn owner_shard(job: JobId, shards: usize, seed: u64) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut z = (job.index() as u64 / OWNER_BLOCK as u64)
        .wrapping_add(seed)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Conflict/retry tally of one [`ShardedScheduler`], drained via
/// [`ShardedScheduler::drain_metrics`] (the engine calls it at end of
/// run; experiments call it directly).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardedStats {
    /// Proposals accepted by the commit stage.
    pub committed: u64,
    /// Proposals rejected because a racing shard won the machine.
    pub conflicts: u64,
    /// Intra-heartbeat retry rounds run across all heartbeats.
    pub retry_rounds: u64,
    /// Most retry rounds any single heartbeat needed.
    pub retry_rounds_peak: u64,
}

/// Omega-style sharded scheduling driver. See the module docs for the
/// pipeline; see [`owner_shard`] for the partitioning.
///
/// With one shard the driver is a transparent delegate — same name, same
/// views — so `shards = 1` output is byte-identical
/// to running the inner policy bare (pinned by `tests/prop_sharded.rs`).
pub struct ShardedScheduler {
    inner: Vec<Box<dyn SchedulerPolicy + Send>>,
    seed: u64,
    name: String,
    stats: ShardedStats,
    /// Per-shard `schedule()` pass wall-times (nanoseconds), drained into
    /// the `heartbeat_shard_us` histogram.
    shard_ns: Vec<u64>,
    /// The commit stage's ledger, begun each `schedule()` call.
    ledger: WorkingLedger,
    /// Critical path of the most recent `schedule()` call (nanoseconds):
    /// partition bucketing, plus per round the *slowest* shard pass and
    /// the serialized commit stage. See
    /// [`ShardedScheduler::last_heartbeat_critical_ns`].
    last_critical_ns: u64,
}

impl ShardedScheduler {
    /// Build a driver over `shards` inner policies produced by `make`
    /// (called once per shard index). All shards should be configured
    /// identically — partitioning is a throughput device, not a policy
    /// mixer — but this is not enforced.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new<F>(shards: usize, seed: u64, mut make: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn SchedulerPolicy + Send>,
    {
        assert!(shards >= 1, "ShardedScheduler requires at least one shard");
        let inner: Vec<_> = (0..shards).map(&mut make).collect();
        let name = if shards == 1 {
            inner[0].name().to_string()
        } else {
            format!("omega[shards={shards}]({})", inner[0].name())
        };
        ShardedScheduler {
            inner,
            seed,
            name,
            stats: ShardedStats::default(),
            shard_ns: Vec::new(),
            ledger: WorkingLedger::default(),
            last_critical_ns: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.len()
    }

    /// Snapshot of the conflict/retry tally without draining it.
    pub fn stats(&self) -> ShardedStats {
        self.stats
    }

    /// Critical path of the most recent `schedule()` call in nanoseconds:
    /// the serial partition bucketing, plus — per fan-out round — the
    /// *slowest* shard pass and the serialized commit stage. This is the
    /// heartbeat wall-clock a deployment with one core per shard
    /// observes, and unlike raw elapsed time it is measurable on any
    /// host core count: per-pass timings are taken inside each pass, so
    /// they stay clean even when the pool time-shares fewer cores.
    /// With one shard it is simply the inner pass's elapsed time.
    ///
    /// Timing only — never feeds back into decisions (determinism).
    pub fn last_heartbeat_critical_ns(&self) -> u64 {
        self.last_critical_ns
    }

    /// Could another optimistic round commit anything *right now*?
    ///
    /// A retry pass can only see more room than round 0 did on machines
    /// the heartbeat has touched: `charged` machines (where racing
    /// commits changed availability) and machines named by rejected
    /// proposals (whose working-ledger charge the losing shard will not
    /// re-apply). So the retry is skipped — an O(rejected × touched)
    /// check instead of an O(partition) scheduling pass per loser — when
    /// no rejected task's local demand fits any touched machine's
    /// residual capacity.
    ///
    /// The check is a deterministic heuristic, not an oracle: it can
    /// miss a cross-task substitution (a *smaller* task the shard never
    /// proposed fitting where its rejected task cannot). Skipping those
    /// loses nothing durable — the engine re-invokes `schedule()` until
    /// quiescence against true post-apply state, the same backstop that
    /// justifies [`MAX_RETRY_ROUNDS`] being finite.
    fn retry_could_place(
        &mut self,
        view: &ClusterView<'_>,
        charged: &[MachineId],
        rejected: &[(TaskUid, MachineId)],
    ) -> bool {
        let mut touched = charged.to_vec();
        touched.extend(rejected.iter().map(|&(_, m)| m));
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&m| !view.is_down(m));
        let mut plan = PlacementPlan::default();
        rejected.iter().any(|&(t, _)| {
            view.is_runnable(t)
                && touched.iter().any(|&m| {
                    view.plan_into(t, m, &mut plan);
                    plan.local.fits_within(&self.ledger.available(view, m))
                })
        })
    }
}

/// Whether the commit stage may take `a`'s eviction list: by the engine's
/// rules (`Engine::admissible`) preemption is on and every victim still
/// runs on the target, at a priority strictly below the placing task's;
/// and no victim is evicted already this heartbeat, by an earlier commit
/// or earlier in the list. Vacuous for a proposal that evicts nothing.
fn evictions_valid(view: &ClusterView<'_>, a: &Assignment, evicted: &HashSet<TaskUid>) -> bool {
    if a.evict.is_empty() {
        return true;
    }
    let placer = view.task_priority(a.task);
    view.preemption_enabled()
        && a.evict.iter().enumerate().all(|(i, &v)| {
            view.running_on(v)
                .is_some_and(|(host, _)| host == a.machine)
                && view.task_priority(v) < placer
                && !evicted.contains(&v)
                && !a.evict[..i].contains(&v)
        })
}

impl SchedulerPolicy for ShardedScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let shards = self.inner.len();
        if shards == 1 {
            // Transparent delegate; timed so the critical-path metric is
            // defined uniformly across shard counts.
            let t0 = Instant::now();
            let out = self.inner[0].schedule(view);
            self.last_critical_ns = t0.elapsed().as_nanos() as u64;
            return out;
        }

        let seed = self.seed;
        self.ledger.begin(view);
        // Machines a commit charged, host and sources (may repeat).
        let mut charged: Vec<MachineId> = Vec::new();
        let mut accepted: Vec<Assignment> = Vec::new();
        let mut committed_tasks: HashSet<TaskUid> = HashSet::new();
        // Victims of the preemptive proposals committed so far.
        let mut evicted: HashSet<TaskUid> = HashSet::new();
        let mut active: Vec<usize> = (0..shards).collect();
        let mut critical_ns;

        // Bucket the active jobs by owner shard once per heartbeat, so
        // each shard's pass enumerates O(partition) jobs instead of
        // hash-filtering the whole job table per round. Job activity
        // cannot change while schedule() runs (the engine applies
        // assignments only after we return), so the lists stay exact
        // across retry rounds.
        let t0 = Instant::now();
        let mut partition: Vec<Vec<tetris_workload::JobId>> = vec![Vec::new(); shards];
        for j in view.active_jobs() {
            partition[owner_shard(j, shards, seed)].push(j);
        }
        critical_ns = t0.elapsed().as_nanos() as u64;

        // Never oversubscribe the host: extra workers only time-share.
        // Worker count is invisible in the output (pool contract).
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);

        for round in 0..=MAX_RETRY_ROUNDS {
            // Fan out: every active shard runs its pass concurrently
            // against a read-only view scoped to its partition and the
            // ledger committed so far. The pool returns results in
            // submission (= shard) order regardless of finish order.
            let ledger = &self.ledger;
            let partition_ref = &partition;
            let items: Vec<(usize, &mut Box<dyn SchedulerPolicy + Send>)> = self
                .inner
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active.contains(i))
                .collect();
            let workers = items.len().min(cores);
            let results: Vec<(usize, Vec<Assignment>, u64)> = pool_map(
                items,
                workers,
                |(si, policy), _| {
                    let t0 = Instant::now();
                    let scoped = view.scoped(ShardScope {
                        ledger,
                        jobs: &partition_ref[si],
                    });
                    let out = policy.schedule(&scoped);
                    (si, out, t0.elapsed().as_nanos() as u64)
                },
                |_, _| {},
            );
            critical_ns += results.iter().map(|(_, _, ns)| *ns).max().unwrap_or(0);
            let t_commit = Instant::now();

            // Commit serially, shards in index order (the deterministic
            // tie-break), proposals in each shard's own order.
            let mut losers: Vec<usize> = Vec::new();
            let mut rejected: Vec<(TaskUid, MachineId)> = Vec::new();
            for (si, proposals, ns) in results {
                self.shard_ns.push(ns);
                let mut lost = false;
                for a in proposals {
                    if committed_tasks.contains(&a.task) {
                        // Re-proposal of a task this heartbeat already
                        // committed (the proposing shard's view does not
                        // show the placement yet) — not a conflict. Audit
                        // note: this guard is what keeps the commit stage
                        // idempotent under retries — the ledger is
                        // charged and `stats.committed` bumped exactly
                        // once per task, and `stats.conflicts` counts
                        // only genuine capacity losses. Pinned by
                        // `reproposals_commit_once_without_double_charging`
                        // in tests/prop_sharded.rs.
                        continue;
                    }
                    // Committing still fits: every demand of the plan, local
                    // and remote, within what the ledger leaves once the
                    // proposal's victims, if it may evict them, are gone.
                    if view.is_runnable(a.task)
                        && !view.is_down(a.machine)
                        && evictions_valid(view, &a, &evicted)
                        && self
                            .ledger
                            .try_place_evicting(view, a.task, a.machine, &a.evict)
                            .is_ok()
                    {
                        evicted.extend(a.evict.iter().copied());
                        charged.push(a.machine);
                        charged.extend(self.ledger.plan().remote.iter().map(|&(src, _)| src));
                        committed_tasks.insert(a.task);
                        accepted.push(a);
                        self.stats.committed += 1;
                    } else {
                        self.stats.conflicts += 1;
                        rejected.push((a.task, a.machine));
                        lost = true;
                    }
                }
                if lost {
                    losers.push(si);
                }
            }

            // Futile-retry cutoff: losers re-run only when a rejected
            // task could actually commit against the residual capacity —
            // otherwise the whole retry round would rediscover "nothing
            // fits" at O(partition) cost per loser.
            let done = losers.is_empty()
                || round == MAX_RETRY_ROUNDS
                || !self.retry_could_place(view, &charged, &rejected);
            critical_ns += t_commit.elapsed().as_nanos() as u64;

            if done {
                self.stats.retry_rounds_peak = self.stats.retry_rounds_peak.max(round as u64);
                break;
            }
            self.stats.retry_rounds += 1;
            active = losers;
        }
        self.last_critical_ns = critical_ns;
        accepted
    }

    fn uses_tracker(&self) -> bool {
        self.inner[0].uses_tracker()
    }

    fn drain_metrics(&mut self, metrics: &mut MetricsRegistry) {
        for p in &mut self.inner {
            p.drain_metrics(metrics);
        }
        let s = std::mem::take(&mut self.stats);
        if s.conflicts > 0 {
            metrics.counter_add(names::SCHED_CONFLICTS, s.conflicts);
        }
        if s.retry_rounds > 0 {
            metrics.counter_add(names::CONFLICT_RETRY_ROUNDS, s.retry_rounds);
        }
        if s.retry_rounds_peak > 0 {
            metrics.gauge_set(names::CONFLICT_RETRY_PEAK, s.retry_rounds_peak as f64);
        }
        for ns in self.shard_ns.drain(..) {
            metrics.observe(names::SHARD_HEARTBEAT_US, ns / 1_000);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_shard_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for j in 0..256 {
                let a = owner_shard(JobId(j), shards, 42);
                let b = owner_shard(JobId(j), shards, 42);
                assert_eq!(a, b, "hash must be stable");
                assert!(a < shards);
            }
        }
        // Single shard owns everything regardless of seed.
        assert_eq!(owner_shard(JobId(7), 1, 999), 0);
    }

    #[test]
    fn owner_shard_spreads_jobs() {
        // Ownership is block-granular, so spread is asserted over many
        // blocks (1024 here): every shard should own a healthy fraction.
        let shards = 4;
        let n = OWNER_BLOCK * 1024;
        let mut counts = vec![0usize; shards];
        for j in 0..n {
            counts[owner_shard(JobId(j), shards, 42)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > n / 8, "shard {i} owns only {c}/{n} jobs");
        }
        // Whole blocks share an owner (the locality contract).
        for b in 0..32 {
            let first = owner_shard(JobId(b * OWNER_BLOCK), shards, 7);
            for o in 1..OWNER_BLOCK {
                assert_eq!(first, owner_shard(JobId(b * OWNER_BLOCK + o), shards, 7));
            }
        }
    }
}
