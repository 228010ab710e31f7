//! One scenario generator, one invariant checker and one policy wrapper
//! for every property suite in the workspace (DESIGN.md §6). Test-only:
//! integration tests name it as a dev-dependency, and nothing ships with
//! it.
//!
//! A [`Scenario`] is a pure function of one `u64` draw. It draws every
//! axis the extensions act on at once: cluster shape, a batch and service
//! workload with §16 priorities and constraints, taints, a fault plan, the
//! engine switches, a shard count, a policy and an optional scheduler
//! crash. [`forall`] runs a property over a sequence of draws and prints
//! the draw that fails; `Scenario::from_seed(n)` replays it, since the
//! vendored proptest neither shrinks nor keeps a regression store. A
//! property that needs one regime narrows the draw with a plain function
//! ([`Scenario::calm`], [`Scenario::saturated`], [`Scenario::find`], ...),
//! never with a second generator.
//!
//! [`check_invariants`] asserts what every run must satisfy,
//! [`same_outcome`] what two runs that must agree share, and [`Audited`]
//! wraps any policy with a closure that sees each of its calls.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rand::{rngs::StdRng, Rng, SeedableRng};
use tetris_core::{AlignmentKind, TetrisConfig, TetrisScheduler};
pub use tetris_expts::SchedName;
use tetris_obs::{names, Event, MetricsRegistry, Obs, VecRecorder};
use tetris_resources::{units::GB, units::MB, MachineSpec, Resource, ResourceVec};
use tetris_sim::{
    Assignment, ClusterConfig, ClusterView, FaultPlan, GreedyFifo, Journal, MachineId,
    RecoveryError, RecoveryStats, RunResult, SchedulerCrash, SchedulerPolicy, ShardedScheduler,
    SimConfig, SimOutcome, Simulation,
};
use tetris_workload::{
    BlockId, DiurnalCurve, InputSource, InputSpec, JobId, PlacementConstraints, PriorityClass,
    TaskParams, Workload, WorkloadBuilder,
};

/// `tetris_sim`'s job-partition block (`OWNER_BLOCK` in `sharded.rs`):
/// jobs hash to shards a block of this many ids at a time, so a sharded
/// draw carries more jobs than one block holds, or every job lands on one
/// shard and no two shards ever race.
const OWNER_BLOCK: usize = 64;

/// Memory per slot of the slot baselines (their 2 GB default).
const SLOT_MEM: f64 = 2.0 * GB;

/// What a machine uses to host tasks; it also serves reads of its disks.
const HOSTED: [Resource; 4] = [
    Resource::Cpu,
    Resource::Mem,
    Resource::DiskWrite,
    Resource::NetIn,
];

/// The policy a scenario runs.
#[derive(Debug, Clone)]
pub enum Policy {
    /// The simulator's `GreedyFifo`.
    Greedy,
    /// A registered scheduler.
    Named(SchedName),
    /// Tetris at the given knobs.
    Tetris(TetrisConfig),
}

impl Policy {
    /// A fresh instance; `seed` feeds the stochastic ones.
    pub fn build(&self, seed: u64) -> Box<dyn SchedulerPolicy> {
        match self {
            Policy::Greedy => Box::new(GreedyFifo::new()),
            Policy::Named(name) => name.build(seed),
            Policy::Tetris(cfg) => Box::new(TetrisScheduler::new(cfg.clone())),
        }
    }

    /// The configuration this policy runs Tetris at, if it is Tetris.
    pub fn tetris_config(&self) -> Option<TetrisConfig> {
        match self {
            Policy::Named(SchedName::Tetris) => Some(TetrisConfig::default()),
            Policy::Named(SchedName::PackingOnly) => Some(TetrisConfig::packing_only()),
            Policy::Named(SchedName::TetrisCpuMemOnly) => {
                let mut cfg = TetrisConfig::default();
                cfg.consider_io_dims = false;
                Some(cfg)
            }
            Policy::Tetris(cfg) => Some(cfg.clone()),
            _ => None,
        }
    }
}

/// One draw of everything a run depends on.
#[derive(Clone)]
pub struct Scenario {
    /// The draw this scenario is a function of.
    pub draw: u64,
    /// A uniform cluster of 3–8 machines, small or large.
    pub cluster: ClusterConfig,
    /// Batch jobs (stored inputs, shuffles) and services, with
    /// priorities and constraints.
    pub workload: Workload,
    /// Seed, fault plan, taints and engine switches. Its
    /// `faults.sched_crash` stays `None`: see [`Scenario::crash`].
    pub cfg: SimConfig,
    /// 1–4 scheduler shards.
    pub shards: usize,
    /// The policy, sharded `shards` ways.
    pub policy: Policy,
    /// Where [`Scenario::journaled`] kills the scheduler.
    pub crash: Option<SchedulerCrash>,
}

/// One scenario run.
pub struct Run {
    /// The outcome.
    pub outcome: SimOutcome,
    /// Every trace event, in order.
    pub trace: Vec<(f64, Event)>,
    /// Proposals the sharded commit stage refused (0 unsharded).
    pub conflicts: u64,
}

impl Run {
    fn new(outcome: SimOutcome, rec: VecRecorder, obs: &Obs) -> Run {
        Run {
            outcome,
            trace: rec.take(),
            conflicts: obs.metrics.counter(names::SCHED_CONFLICTS),
        }
    }
}

impl Scenario {
    /// The scenario of `draw`.
    pub fn from_seed(draw: u64) -> Scenario {
        let rng = &mut StdRng::seed_from_u64(draw);
        let spec = if rng.gen_bool(0.75) {
            MachineSpec::paper_small()
        } else {
            MachineSpec::paper_large()
        };
        let machines = rng.gen_range(3..=8);
        // Sharded runs cost about 1.4 times an unsharded one (a pass a
        // shard a call) and carry every sharded property: one in two.
        let shards = if rng.gen_bool(0.5) {
            1
        } else {
            rng.gen_range(2..=4)
        };
        let policy = match rng.gen_range(0..=SchedName::ALL.len()) {
            0 => Policy::Greedy,
            i => Policy::Named(SchedName::ALL[i - 1]),
        };
        let mut cfg = SimConfig::default();
        cfg.seed = rng.gen_range(0..1_000);
        // Far past the last fault: a run that has not settled by then never will.
        cfg.max_time = 5_000.0;
        cfg.preemption = rng.gen_bool(0.5);
        cfg.reclaim_idle = rng.gen_bool(0.5);
        cfg.machine_index = rng.gen_bool(0.5);
        cfg.shuffle_fanin = rng.gen_range(1..=4);
        if rng.gen_bool(0.5) {
            cfg.faults = fault_plan(rng);
        }
        if rng.gen_bool(0.25) {
            cfg.task_failure_prob = 0.1;
        }
        cfg.max_task_attempts = rng.gen_range(1..=4);
        if rng.gen_bool(0.3) {
            // Two taints at most: a job that tolerates none still has
            // machines to run on.
            let mut taints = vec![0; machines];
            for _ in 0..2 {
                taints[rng.gen_range(0..machines)] = rng.gen_range(1..=3);
            }
            cfg.machine_taints = taints;
        }
        let untainted = machines - cfg.machine_taints.iter().filter(|&&t| t != 0).count();
        let jobs = if shards > 1 {
            rng.gen_range(OWNER_BLOCK + 1..=OWNER_BLOCK + 16)
        } else {
            rng.gen_range(2..=8)
        };
        let workload = workload(rng, &spec.capacity(), jobs, untainted);
        let crash = rng.gen_bool(0.3).then(|| SchedulerCrash {
            at_heartbeat: rng.gen_range(1..=12),
            mid_commit: rng.gen_bool(0.5),
        });
        Scenario {
            draw,
            cluster: ClusterConfig::uniform(machines, spec),
            workload,
            cfg,
            shards,
            policy,
            crash,
        }
    }

    /// A hand-written scenario: `workload` on `cluster` under `policy`,
    /// unsharded, with the simulator's defaults and no faults.
    pub fn fixed(cluster: ClusterConfig, workload: Workload, policy: Policy) -> Scenario {
        let mut cfg = SimConfig::default();
        cfg.max_time = 5_000.0;
        Scenario {
            draw: 0,
            cluster,
            workload,
            cfg,
            shards: 1,
            policy,
            crash: None,
        }
    }

    /// The first scenario `keep` accepts of the draws `draw`,
    /// `draw + 2^32`, `draw + 2 · 2^32`, ...: how a property narrows to a
    /// regime some draws reach. The stride keeps the narrowings of
    /// neighbouring draws apart.
    pub fn find(draw: u64, keep: impl Fn(&Scenario) -> bool) -> Scenario {
        (0..)
            .map(|k: u64| Scenario::from_seed(draw.wrapping_add(k << 32)))
            .find(keep)
            .expect("some draw qualifies")
    }

    /// No machine faults, task failures, preemption or scheduler crash:
    /// every task runs once.
    pub fn calm(mut self) -> Scenario {
        self.cfg.faults = FaultPlan::default();
        self.cfg.task_failure_prob = 0.0;
        self.cfg.preemption = false;
        self.crash = None;
        self
    }

    /// Machines crash: the drawn fault plan, or one drawn for it.
    pub fn churned(mut self) -> Scenario {
        if self.cfg.faults.crash_frac == 0.0 {
            self.cfg.faults = fault_plan(&mut StdRng::seed_from_u64(!self.draw));
        }
        self
    }

    /// Every job arrives in the first five seconds: high priorities queue
    /// behind low ones, and evict them where preemption is on.
    pub fn saturated(mut self) -> Scenario {
        for j in self.workload.jobs_mut() {
            j.arrival /= 12.0;
        }
        self
    }

    /// The scheduler crashes: the drawn crash, or one drawn for it.
    pub fn crashing(mut self) -> Scenario {
        let rng = &mut StdRng::seed_from_u64(!self.draw);
        self.crash.get_or_insert(SchedulerCrash {
            at_heartbeat: rng.gen_range(1..=12),
            mid_commit: rng.gen_bool(0.5),
        });
        self
    }

    /// Runs `policy` instead.
    pub fn with_policy(mut self, policy: Policy) -> Scenario {
        self.policy = policy;
        self
    }

    /// Tetris at knobs drawn over their whole range.
    pub fn with_tetris_knobs(self) -> Scenario {
        let rng = &mut StdRng::seed_from_u64(!self.draw);
        let mut cfg = TetrisConfig::default();
        cfg.fairness_knob = rng.gen_range(0.0..0.99);
        cfg.barrier_knob = [0.8, 0.9, 1.0][rng.gen_range(0..3usize)];
        cfg.remote_penalty = rng.gen_range(0.0..0.3);
        cfg.srtf_multiplier = [0.0, 1.0, 2.0][rng.gen_range(0..3usize)];
        cfg.alignment = AlignmentKind::ALL[rng.gen_range(0..AlignmentKind::ALL.len())];
        self.with_policy(Policy::Tetris(cfg))
    }

    /// The dimensions the policy's fit keeps within capacity, or `None`
    /// for the slot baselines, which count memory slots and nothing else.
    /// A tracker-aware policy that reclaims idle resources keeps memory.
    pub fn fit(&self) -> Option<&'static [Resource]> {
        const CPU_MEM: &[Resource] = &[Resource::Cpu, Resource::Mem];
        let reclaims = self.cfg.reclaim_idle && self.policy.build(0).uses_tracker();
        Some(match &self.policy {
            Policy::Named(SchedName::Fair | SchedName::Capacity) => return None,
            _ if reclaims => &[Resource::Mem],
            Policy::Named(SchedName::Drf) => CPU_MEM,
            p if p.tetris_config().is_some_and(|c| !c.consider_io_dims) => CPU_MEM,
            _ => &Resource::ALL,
        })
    }

    /// `make`'s policy at the scenario's shard count (bare at one).
    pub fn sharded(&self, make: impl Fn() -> Box<dyn SchedulerPolicy>) -> Box<dyn SchedulerPolicy> {
        match self.shards {
            1 => make(),
            n => Box::new(ShardedScheduler::new(n, self.cfg.seed, |_| make())),
        }
    }

    /// The scenario's policy at its shard count.
    pub fn policy(&self) -> Box<dyn SchedulerPolicy> {
        self.sharded(|| self.policy.build(self.cfg.seed))
    }

    /// The simulation, before its scheduler is set.
    fn sim(&self) -> Simulation<'static> {
        Simulation::build(self.cluster.clone(), self.workload.clone()).config(self.cfg.clone())
    }

    /// Runs the scenario's policy.
    pub fn run(&self) -> Run {
        self.run_with(self.policy())
    }

    /// Runs `policy` on the scenario.
    pub fn run_with(&self, policy: impl Into<Box<dyn SchedulerPolicy>>) -> Run {
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec.clone()));
        let outcome = self.sim().scheduler(policy).observe(&mut obs).run();
        Run::new(outcome, rec, &obs)
    }

    /// Runs journaled, with the scenario's scheduler crash if it has one:
    /// how the run ended, and its journal.
    pub fn journaled(&self) -> (RunResult, Journal) {
        let mut cfg = self.cfg.clone();
        cfg.faults.sched_crash = self.crash;
        let mut journal = Journal::new();
        let sim = self.sim().config(cfg).scheduler(self.policy());
        (sim.run_result(Some(&mut journal)), journal)
    }

    /// Recovers from `journal` with a fresh policy.
    pub fn recover(&self, journal: &Journal) -> Result<(Run, RecoveryStats), RecoveryError> {
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec.clone()));
        let sim = self.sim().scheduler(self.policy()).observe(&mut obs);
        let recovered = sim.recover(journal)?;
        Ok((Run::new(recovered.outcome, rec, &obs), recovered.stats))
    }
}

/// A fault plan over the whole taxonomy: crash/recover cycles with flaky
/// leads and restart backoff, stragglers, stale and misreporting
/// trackers, and re-replication of lost blocks.
fn fault_plan(rng: &mut StdRng) -> FaultPlan {
    FaultPlan {
        crash_frac: rng.gen_range(0.05..1.0),
        crash_cycles: rng.gen_range(1..=3),
        downtime: rng.gen_range(5.0..60.0),
        window: (0.0, rng.gen_range(50.0..300.0)),
        restart_backoff: rng.gen_range(0.0..10.0),
        flake_lead: rng.gen_range(0.0..30.0),
        slowdown_frac: rng.gen_range(0.0..1.0),
        slowdown_factor: rng.gen_range(0.2..1.0),
        slowdown_duration: 30.0,
        stale_frac: rng.gen_range(0.0..0.5),
        misreport_frac: rng.gen_range(0.0..0.5),
        misreport_factor: rng.gen_range(0.5..1.6),
        evacuate: rng.gen_bool(0.3),
        ..FaultPlan::default()
    }
}

/// `jobs` jobs arriving over the first minute or five seconds, a quarter
/// of them services.
/// A batch job maps over stored blocks from a shared pool (inputs that
/// share a block share its replica holders) and may shuffle into a reduce
/// stage; a map stage up to six wide leaves its output on more machines
/// than a 1–4 `shuffle_fanin` reads. Many-job draws keep each job small.
fn workload(rng: &mut StdRng, cap: &ResourceVec, jobs: usize, untainted: usize) -> Workload {
    let mut b = WorkloadBuilder::new().with_demand_cap(*cap);
    let pool: Vec<BlockId> = (0..rng.gen_range(2..=8)).map(|_| b.new_block()).collect();
    let block = |rng: &mut StdRng, bytes: f64| InputSpec {
        source: InputSource::Stored(pool[rng.gen_range(0..pool.len())]),
        bytes,
    };
    let widest = if jobs > 16 { 2 } else { 6 };
    // Arrivals over a minute, or a burst that queues work behind work.
    let horizon = if rng.gen_bool(0.5) { 60.0 } else { 5.0 };
    for ji in 0..jobs {
        let arrival = rng.gen_range(0.0..horizon);
        let none = PlacementConstraints::none();
        let constraints = match rng.gen_range(0..6) {
            1 if ji > 0 => none.with_affinity(JobId(ji - 1)),
            2 if ji > 0 => none.with_anti_affinity(JobId(ji - 1)),
            3 => none.with_spread(rng.gen_range(1..=untainted.min(3))),
            4 => none.with_tolerations(rng.gen_range(0..=3)),
            _ => none,
        };
        let cores = cap.get(Resource::Cpu) * rng.gen_range(0.05..0.5);
        let mem = cap.get(Resource::Mem) * rng.gen_range(0.02..0.3);
        let task = |duration, cpu_frac, inputs, output_bytes| TaskParams {
            cores,
            mem,
            duration,
            cpu_frac,
            io_burst: 1.0,
            inputs,
            output_bytes,
            remote_frac: 1.0,
        };
        if rng.gen_bool(0.25) {
            let priority = PriorityClass(rng.gen_range(5..=9));
            let flat = DiurnalCurve::flat();
            let j = b.begin_service_job(
                format!("s{ji}"),
                None,
                arrival,
                priority,
                10.0,
                flat,
                constraints,
            );
            let duration = rng.gen_range(10.0..40.0);
            let replicas = rng.gen_range(1..=widest.min(3));
            b.add_stage(j, "serve", vec![], replicas, |_| {
                task(duration, 1.0, vec![], 0.0)
            });
            continue;
        }
        let j = b.begin_job(format!("j{ji}"), None, arrival);
        b.set_priority(j, PriorityClass(rng.gen_range(0..=4)));
        b.set_constraints(j, constraints);
        let duration = rng.gen_range(2.0..25.0);
        let cpu_frac = rng.gen_range(0.3..1.0);
        // Whole megabytes: a shuffle's per-source totals are exact in any
        // summation order.
        let out = rng
            .gen_bool(0.7)
            .then(|| rng.gen_range(5..=200) as f64 * MB);
        let maps = rng.gen_range(1..=widest);
        let inputs: Vec<Vec<InputSpec>> = (0..maps)
            .map(|_| {
                let n = rng.gen_range(1..=2);
                (0..n)
                    .map(|_| {
                        let bytes = rng.gen_range(8..=64) as f64 * MB;
                        block(rng, bytes)
                    })
                    .collect()
            })
            .collect();
        let map = b.add_stage(j, "map", vec![], maps, |i| {
            task(duration, cpu_frac, inputs[i].clone(), out.unwrap_or(0.0))
        });
        if let Some(out) = out.filter(|_| rng.gen_bool(0.5)) {
            let reduces = rng.gen_range(1..=2);
            let mut inputs = vec![InputSpec {
                source: InputSource::Shuffle { stage: map },
                bytes: out * maps as f64 / reduces as f64,
            }];
            if rng.gen_bool(0.3) {
                inputs.push(block(rng, 10.0 * MB));
            }
            b.add_stage(j, "reduce", vec![map], reduces, |_| {
                task(duration / 2.0, 0.5, inputs.clone(), MB)
            });
        }
    }
    b.finish()
}

/// Runs `property` on `cases` scenarios from a sequence of draws `name`
/// picks. A failing draw is printed before its panic propagates:
/// `Scenario::from_seed(n)` replays it.
pub fn forall(name: &str, cases: u64, mut property: impl FnMut(Scenario)) {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    for i in 0..cases {
        let draw = base.wrapping_add(i);
        let case = catch_unwind(AssertUnwindSafe(|| property(Scenario::from_seed(draw))));
        if let Err(panic) = case {
            eprintln!("{name}: draw {draw} failed; replay it as Scenario::from_seed({draw})");
            resume_unwind(panic);
        }
    }
}

/// Asserts what every run of `s` must satisfy:
/// - terminal conservation: every job settles, every task completes or
///   is abandoned, and the counters agree with the records;
/// - no machine over-committed where the policy's fit promises it
///   ([`Scenario::fit`]), and memory never unless the policy counts slots;
/// - no priority inversion: each preemption evicts a strictly lower
///   priority, and the counter agrees with the trace;
/// - down machines host nothing, and the trace covers every fault
///   transition the counters report;
/// - samples in time order, JCTs positive, no task faster than its plan.
pub fn check_invariants(s: &Scenario, run: &Run) {
    let o = &run.outcome;
    assert_eq!(o.tasks.len(), s.workload.num_tasks());
    let abandoned = o.tasks.iter().filter(|t| t.abandoned).count();
    assert_eq!(abandoned as u64, o.stats.tasks_abandoned);

    let priority = |task: usize| s.workload.jobs[o.tasks[task].job.index()].priority.0;
    let n = s.cluster.len();
    let (mut down_at, mut down) = (vec![None; n], vec![Vec::new(); n]);
    let mut suspect = vec![false; n];
    let (mut preemptions, mut ups, mut suspects, mut cleared, mut killed) = (0, 0, 0, 0, 0);
    for &(t, ref e) in &run.trace {
        match *e {
            Event::TaskPreempted {
                task,
                ref reason,
                priority: p,
                preempted_by,
                ..
            } => {
                if reason != "priority_preemption" {
                    assert!(p.is_none() && preempted_by.is_none());
                    continue;
                }
                let by = preempted_by.expect("priority preemptions name their preemptor");
                preemptions += 1;
                assert_eq!(p, Some(priority(task)), "the event names the victim");
                let (pv, pb) = (priority(task), priority(by));
                assert!(
                    pv < pb,
                    "inversion: task {task} (p{pv}) evicted by {by} (p{pb})"
                );
            }
            Event::TaskPlaced { machine, task, .. } => {
                assert!(
                    down_at[machine].is_none(),
                    "{task} placed on down {machine} at {t}"
                );
            }
            Event::MachineDown {
                machine, killed: k, ..
            } => {
                down_at[machine] = Some(t);
                killed += k as u64;
            }
            Event::MachineUp { machine } => {
                down[machine].push((down_at[machine].take().expect("up without down"), t));
                ups += 1;
            }
            Event::MachineSuspected { machine } => {
                (suspect[machine], suspects) = (true, suspects + 1)
            }
            Event::MachineCleared { machine } => (suspect[machine], cleared) = (false, cleared + 1),
            _ => {}
        }
    }
    assert_eq!(o.stats.preemptions, preemptions);
    for (m, start) in down_at.into_iter().enumerate() {
        down[m].extend(start.map(|s| (s, f64::INFINITY)));
    }
    let downs = down.iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(downs, o.stats.machine_crashes, "every crash is traced");
    assert!(
        ups <= downs && downs - ups <= n as u64,
        "{downs} downs, {ups} ups"
    );
    assert!(suspects >= cleared && suspects <= cleared + n as u64);
    assert_eq!(killed, o.stats.crash_killed_attempts);

    let fit = s.fit();
    for pair in o.samples.windows(2) {
        assert!(pair[1].t > pair[0].t, "samples out of order");
    }
    for sample in &o.samples {
        for (m, ms) in sample.machines.iter().flatten().enumerate() {
            let cap = s.cluster.capacity(MachineId(m));
            let slots = (cap.get(Resource::Mem) / SLOT_MEM).floor() as usize;
            assert!(
                fit.is_some() || ms.running <= slots,
                "{} tasks on {m}",
                ms.running
            );
            for &r in fit.unwrap_or(&[]) {
                let a = ms.allocated.get(r);
                let at = sample.t;
                assert!(
                    a <= cap.get(r) * (1.0 + 1e-9) + 1e-6,
                    "{m} over-committed on {r} at {at}: {a}"
                );
            }
            if down[m].iter().any(|&(a, b)| sample.t > a && sample.t < b) {
                // Releasing killed attempts is float subtraction: "zero"
                // is ledger dust. A block whose last replica is on a down
                // machine is still read from it (`evacuate_blocks`), so
                // only what the machine hosts drains.
                for r in HOSTED {
                    let v = ms.usage.get(r);
                    assert!(v.abs() < 1e-3, "down machine {m} uses {v} of {r}");
                }
                assert_eq!(ms.running, 0, "down machine {m} runs tasks");
            }
        }
    }

    // Terminal conservation. Its one unstated precondition: Tetris
    // excludes suspect machines (DESIGN.md §10), and a stale tracker can
    // keep one suspect for good. Work that needs it, as the only host its
    // taints leave or as the source of its input, then waits for the hard
    // stop.
    if !o.completed {
        let excludes_suspects = s.policy.tetris_config().is_some();
        let stalled = excludes_suspects && suspect.contains(&true);
        assert!(stalled, "the run must settle every job");
        return;
    }
    for t in &o.tasks {
        assert!(t.finish.is_some(), "task {:?} is not terminal", t.uid);
    }
    for j in &o.jobs {
        if let (Some(jct), Some(start)) = (j.jct(), j.first_start) {
            assert!(jct > 0.0 && start >= j.arrival, "job {:?}", j.id);
        }
    }
    // An abandoned task's `finish` is when it was given up.
    for t in o.tasks.iter().filter(|t| !t.abandoned) {
        if let (Some(d), Some(planned)) = (t.duration(), t.planned_duration) {
            assert!(
                d >= planned * (1.0 - 1e-6) - 1e-3,
                "{:?}: {d} < {planned}",
                t.uid
            );
        }
    }
}

/// The byte-identity oracle: an outcome's full wire form.
pub fn wire(o: &SimOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
}

/// Asserts that two runs which must agree do: the same outcome in its
/// wire form, and the same trace once heartbeat wall times are masked.
pub fn same_outcome(a: &Run, b: &Run) {
    let (wa, wb) = (wire(&a.outcome), wire(&b.outcome));
    let at = wa
        .bytes()
        .zip(wb.bytes())
        .take_while(|(x, y)| x == y)
        .count();
    assert!(
        wa == wb,
        "outcomes part at byte {at}: {:?}",
        wa.get(at..at + 80)
    );
    let (ta, tb) = (masked(&a.trace), masked(&b.trace));
    let at = ta.iter().zip(&tb).take_while(|(x, y)| x == y).count();
    assert!(
        ta == tb,
        "traces part at event {at}: {:?} vs {:?}",
        ta.get(at),
        tb.get(at)
    );
}

fn masked(trace: &[(f64, Event)]) -> Vec<(f64, Event)> {
    let mut trace = trace.to_vec();
    for (_, e) in &mut trace {
        if let Event::HeartbeatProcessed { wall_ns, .. } = e {
            *wall_ns = 0;
        }
    }
    trace
}

/// Forwards every call to `inner`, then hands `inner`, the view and the
/// call's assignments to `after`, which may check them or add to them.
/// It stands in for every test policy that watches, audits or probes
/// another one.
pub struct Audited<P: ?Sized> {
    after: Box<After<P>>,
    inner: Box<P>,
}

/// What [`Audited`] runs after each call of its inner policy.
type After<P> = dyn FnMut(&P, &ClusterView<'_>, &mut Vec<Assignment>);

impl<P: ?Sized> Audited<P> {
    /// `inner`, with `after` run after each of its calls.
    pub fn new(
        inner: Box<P>,
        after: impl FnMut(&P, &ClusterView<'_>, &mut Vec<Assignment>) + 'static,
    ) -> Self {
        Audited {
            after: Box::new(after),
            inner,
        }
    }
}

impl<P: SchedulerPolicy + ?Sized> SchedulerPolicy for Audited<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut out = self.inner.schedule(view);
        (self.after)(&self.inner, view, &mut out);
        out
    }

    fn uses_tracker(&self) -> bool {
        self.inner.uses_tracker()
    }

    fn reads_ticks(&self) -> bool {
        self.inner.reads_ticks()
    }

    fn drain_metrics(&mut self, metrics: &mut MetricsRegistry) {
        self.inner.drain_metrics(metrics);
    }
}
