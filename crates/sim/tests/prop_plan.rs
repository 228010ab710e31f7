//! The placement plan depends on the host only through what the host
//! holds of the task's input.
//!
//! Claim (`ClusterView::task_reads_locally`): on every machine that holds
//! none of a task's input — no replica of a stored block, no output of an
//! upstream shuffle stage — `ClusterView::plan` returns the *same value*:
//! all inputs remote, sources fixed by `replicas[uid % len]` and the
//! stage's output map, fan-in truncation included. Tetris's `blocked`
//! memo (DESIGN.md §9) skips machines on the strength of it, so it is
//! pinned here, field for field, for every runnable task after every
//! scheduling call of calm scenario draws, whose shuffle stages have both
//! fewer and more sources than their 1–4 `shuffle_fanin`.
//!
//! Two more claims about a reader whose one input is a shuffle:
//! * its plan walks the stage's ranked output (`SimState::ranked_reads`)
//!   and must read what the general path reads — the bytes of every
//!   source, and of the host, bit for bit. The reference is restated here
//!   ([`general_reads`]) from the stage's output map, which the audit sums
//!   from the run's placements as the view shows them finished (calm
//!   draws: no attempt is killed, fails or is preempted). Every output is
//!   a whole number of bytes, so the sums are exact in any order.
//!   The rest of a plan is computed from its reads by one code path, and
//!   debug builds re-derive every ranked plan by the general path inside
//!   the crate too;
//! * on any host but `s`, its plan asks each source `s` of its all-remote
//!   plan for at least that plan's demand at `s` less
//!   [`SHUFFLE_SHARE_MARGIN`] — what lets the memo answer machines that
//!   hold part of the input.
//!
//! The same audit carries one dirty `PlacementPlan` through every
//! `plan_into` call of a run and checks it against the allocating `plan`.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use tetris_resources::{units::GB, units::MB, MachineSpec, Resource};
use tetris_sim::{
    Assignment, ClusterConfig, ClusterView, MachineId, PlacementPlan, SchedulerPolicy,
    SHUFFLE_SHARE_MARGIN,
};
use tetris_testkit::{forall, Audited, Policy, Scenario, SchedName};
use tetris_workload::{
    InputSource, InputSpec, JobId, TaskParams, TaskUid, Workload, WorkloadBuilder,
};

/// What a run's audit covered, so the deterministic tests can show the
/// claims were not checked vacuously.
#[derive(Debug, Default)]
struct Coverage {
    /// (task, machine) pairs compared against the task's reference plan.
    same_plan_checks: u64,
    /// Machines some task reads locally from.
    local_machines: u64,
    /// Non-local reference plans of shuffle readers with fewer remote
    /// sources than the fan-in bound / with as many (more, truncated).
    shuffle_under_fanin: u64,
    shuffle_at_fanin: u64,
    /// (task, host) plans of one-shuffle readers compared with
    /// [`general_reads`] where the stage has more sources than the fan-in
    /// bound keeps (the ranked walk's case) — of them, where the bound
    /// cuts through a run of equal shares.
    ranked_checks: u64,
    tied_at_bound: u64,
    /// Output-machine counts of the stages those readers read.
    source_counts: BTreeSet<usize>,
    /// Memo-claim checks, by where the host ranks among the all-remote
    /// plan's sources: inside the kept set, its last place, past it.
    host_inside: u64,
    host_at_edge: u64,
    host_outside: u64,
    /// Of them, those that hold only thanks to the margin: the host asks
    /// the source a rounding error less than the all-remote plan did.
    within_margin: u64,
}

/// The audit's state across one run's calls.
#[derive(Default)]
struct PlanAudit {
    fanin: usize,
    /// Reused across every `plan_into` of the run, never cleared.
    dirty: PlacementPlan,
    /// Placed tasks not yet seen finished, with their hosts.
    placed: BTreeMap<TaskUid, MachineId>,
    /// Per (job, stage): output bytes by machine and in total.
    outs: BTreeMap<(JobId, usize), (BTreeMap<MachineId, f64>, f64)>,
    /// Shared with the caller: the engine owns the policy.
    seen: Rc<RefCell<Coverage>>,
}

/// The general plan's reads for a reader of `frac` of a stage whose
/// output is `outs`, on `host`: (bytes read locally, bytes from each
/// remote source by machine), at most `fanin` sources kept — largest
/// share first, ties by machine — and the rest folded into them.
fn general_reads(
    outs: &BTreeMap<MachineId, f64>,
    frac: f64,
    host: MachineId,
    fanin: usize,
) -> (f64, Vec<(MachineId, f64)>) {
    let mut local = 0.0;
    let mut remote = Vec::new();
    for (&m, &bytes) in outs {
        let share = bytes * frac;
        if share <= 0.0 {
            continue;
        }
        if m == host {
            local += share;
        } else {
            remote.push((m, share));
        }
    }
    if remote.len() > fanin {
        remote.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let kept: f64 = remote[..fanin].iter().map(|r| r.1).sum();
        let tail: f64 = remote[fanin..].iter().map(|r| r.1).sum();
        remote.truncate(fanin);
        for r in &mut remote {
            r.1 *= (kept + tail) / kept;
        }
        remote.sort_by_key(|r| r.0);
    }
    (local, remote)
}

fn bits(reads: &[(MachineId, f64)]) -> Vec<(MachineId, u64)> {
    reads.iter().map(|&(m, b)| (m, b.to_bits())).collect()
}

impl PlanAudit {
    /// `policy`, audited after each call; the coverage counts come back
    /// through the shared cell.
    fn wrap<P: SchedulerPolicy + ?Sized + 'static>(
        policy: Box<P>,
        fanin: usize,
    ) -> (Audited<P>, Rc<RefCell<Coverage>>) {
        let mut audit = PlanAudit {
            fanin,
            ..PlanAudit::default()
        };
        let seen = Rc::clone(&audit.seen);
        let policy = Audited::new(policy, move |_, view, out: &mut Vec<Assignment>| {
            audit.note_finished(view);
            audit.audit(view);
            audit.placed.extend(out.iter().map(|a| (a.task, a.machine)));
        });
        (policy, seen)
    }

    /// Credit each placed task the view no longer shows running on its
    /// host (nor pending: nothing fails here) with its output there.
    fn note_finished(&mut self, view: &ClusterView<'_>) {
        let outs = &mut self.outs;
        self.placed.retain(|&task, &mut host| {
            if view.is_runnable(task) || view.machine_tasks(host).contains(&task) {
                return true;
            }
            let out = view.task(task).output_bytes;
            if out > 0.0 {
                let (outs, total) = outs.entry(view.task_stage(task)).or_default();
                *outs.entry(host).or_insert(0.0) += out;
                *total += out;
            }
            false
        });
    }

    fn audit(&mut self, view: &ClusterView<'_>) {
        let machines: Vec<MachineId> = view.query().iter_all().collect();
        for j in view.active_jobs() {
            for t in view.job_pending(j) {
                let plans: Vec<PlacementPlan> = machines.iter().map(|&m| view.plan(t, m)).collect();
                for (&m, plan) in machines.iter().zip(&plans) {
                    view.plan_into(t, m, &mut self.dirty);
                    assert_eq!(
                        &self.dirty, plan,
                        "plan_into({t:?}, {m:?}) into a used buffer"
                    );
                }
                self.same_plan_off_input(view, t, &machines, &plans);
                self.shuffle_reader(view, t, &machines, &plans);
            }
        }
    }

    fn same_plan_off_input(
        &self,
        view: &ClusterView<'_>,
        t: TaskUid,
        machines: &[MachineId],
        plans: &[PlacementPlan],
    ) {
        let mut seen = self.seen.borrow_mut();
        let mut reference: Option<&PlacementPlan> = None;
        for (&m, plan) in machines.iter().zip(plans) {
            if view.task_reads_locally(t, m) {
                seen.local_machines += 1;
                continue;
            }
            assert_eq!(plan.local_read_bytes, 0.0, "{t:?} reads locally on {m:?}");
            match reference {
                None => {
                    if view.task(t).reads_shuffle() {
                        if plan.remote.len() < self.fanin {
                            seen.shuffle_under_fanin += 1;
                        } else {
                            seen.shuffle_at_fanin += 1;
                        }
                    }
                    reference = Some(plan);
                }
                Some(r) => {
                    seen.same_plan_checks += 1;
                    assert_eq!(plan, r, "{t:?} plans differently on non-local {m:?}");
                }
            }
        }
    }

    /// The two claims about a reader whose one input is a shuffle.
    fn shuffle_reader(
        &self,
        view: &ClusterView<'_>,
        t: TaskUid,
        machines: &[MachineId],
        plans: &[PlacementPlan],
    ) {
        let [InputSpec {
            source: InputSource::Shuffle { stage },
            bytes,
        }] = view.task(t).inputs[..]
        else {
            return;
        };
        let fanin = self.fanin;
        let (outs, total) = &self.outs[&(view.task_stage(t).0, stage)];
        let frac = bytes / total;
        let mut seen = self.seen.borrow_mut();

        // Ranked ≡ general, bit for bit.
        for (&h, plan) in machines.iter().zip(plans) {
            let (local, remote) = general_reads(outs, frac, h, fanin);
            assert_eq!(
                (plan.local_read_bytes.to_bits(), bits(&plan.remote_reads)),
                (local.to_bits(), bits(&remote)),
                "{t:?} on {h:?}: reads {} {:?}, general {local} {remote:?}",
                plan.local_read_bytes,
                plan.remote_reads,
            );
            if outs.len() > fanin {
                seen.ranked_checks += 1;
            }
        }
        seen.source_counts.insert(outs.len());
        let mut order: Vec<(MachineId, f64)> = outs.iter().map(|(&m, &b)| (m, b * frac)).collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if order.len() > fanin && order[fanin - 1].1 == order[fanin].1 {
            seen.tied_at_bound += 1;
        }

        // The memo's claim, against the all-remote plan (if some machine
        // holds none of the input).
        let Some(all_remote) = machines
            .iter()
            .position(|&m| !view.task_reads_locally(t, m))
            .map(|i| &plans[i])
        else {
            return;
        };
        let least = 1.0 - SHUFFLE_SHARE_MARGIN;
        for &(s, dem) in &all_remote.remote {
            for (&h, plan) in machines.iter().zip(plans) {
                if h == s {
                    continue;
                }
                let asked = plan.remote.iter().find(|&&(m, _)| m == s);
                let (_, asked) = asked.unwrap_or_else(|| panic!("{t:?} on {h:?} drops {s:?}"));
                for r in [Resource::DiskRead, Resource::NetOut] {
                    assert!(
                        asked.get(r) >= dem.get(r) * least,
                        "{t:?} on {h:?} asks {s:?} for {} of {r}, all-remote {}",
                        asked.get(r),
                        dem.get(r)
                    );
                }
                if asked.get(Resource::DiskRead) < dem.get(Resource::DiskRead) {
                    seen.within_margin += 1;
                }
                match order.iter().position(|&(m, _)| m == h) {
                    Some(rank) if rank + 1 < fanin => seen.host_inside += 1,
                    Some(rank) if rank + 1 == fanin => seen.host_at_edge += 1,
                    Some(_) => seen.host_outside += 1,
                    None => {}
                }
            }
        }
    }
}

#[test]
fn non_local_hosts_share_one_plan() {
    let mut ranked = 0;
    forall("non_local_hosts_share_one_plan", 24, |s| {
        let s = s.calm();
        let (policy, seen) = PlanAudit::wrap(s.policy(), s.cfg.shuffle_fanin);
        assert!(s.run_with(policy).outcome.all_jobs_completed());
        ranked += seen.borrow().ranked_checks;
    });
    assert!(
        ranked > 0,
        "no stage ever had more sources than its fan-in keeps"
    );
}

// The generator's corners on fixed inputs, with the coverage counted.

const N_MACHINES: usize = 8;
const FANIN: usize = 3;

/// One job: a map stage over stored blocks feeding a reduce stage that
/// shuffles from it.
#[derive(Debug, Clone)]
struct JobShape {
    /// Map tasks, spread over machines, so 1..=8 straddles [`FANIN`].
    maps: usize,
    /// Stored inputs per map task, drawn from a pool of `pool` blocks
    /// (small pools make two inputs share a replica holder).
    inputs_per_map: usize,
    pool: usize,
    /// Give every map task one extra zero-byte stored input.
    zero_byte_input: bool,
    /// Every map task writes as much output, so the fan-in bound breaks
    /// ties by machine id; otherwise outputs are uneven.
    equal_out: bool,
    reduces: usize,
    /// Reduce tasks also read a stored block (mixed inputs).
    mixed: bool,
}

fn build(jobs: &[JobShape]) -> Workload {
    let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
    for (ji, shape) in jobs.iter().enumerate() {
        let j = b.begin_job(format!("j{ji}"), None, ji as f64);
        let pool: Vec<_> = (0..shape.pool).map(|_| b.new_block()).collect();
        let stored = |k: usize, bytes: f64| InputSpec {
            source: InputSource::Stored(pool[k % pool.len()]),
            bytes,
        };
        let params = |inputs, output_bytes| TaskParams {
            cores: 0.5,
            mem: 0.25 * GB,
            duration: 4.0,
            cpu_frac: 0.5,
            io_burst: 1.0,
            inputs,
            output_bytes,
            remote_frac: 1.0,
        };
        let map = b.add_stage(j, "map", vec![], shape.maps, |i| {
            let mut inputs: Vec<_> = (0..shape.inputs_per_map)
                .map(|k| stored(i + 2 * k, (8 + 4 * k) as f64 * MB))
                .collect();
            if shape.zero_byte_input {
                inputs.push(stored(i + 1, 0.0));
            }
            // Uneven outputs give fan-in truncation a real order.
            params(
                inputs,
                if shape.equal_out { 8 } else { 5 + 3 * i } as f64 * MB,
            )
        });
        b.add_stage(j, "reduce", vec![map], shape.reduces, |i| {
            let mut inputs = vec![InputSpec {
                source: InputSource::Shuffle { stage: map },
                bytes: 6.0 * MB,
            }];
            if shape.mixed {
                inputs.push(stored(i, 10.0 * MB));
            }
            params(inputs, 0.0)
        });
    }
    b.finish()
}

/// `jobs` under seeded random placement, audited. The engine refuses to
/// start a flow that carries no bytes, so a zero-byte input can be planned
/// anywhere but placed only where it is local or shares its source with a
/// real read: proposals elsewhere are dropped, and random placement tries
/// again on the next call.
fn run(jobs: &[JobShape], seed: u64) -> Coverage {
    let cluster = ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small());
    let mut s = Scenario::fixed(cluster, build(jobs), Policy::Named(SchedName::Random));
    s.cfg.seed = seed;
    s.cfg.shuffle_fanin = FANIN;
    let random = Audited::new(s.policy(), |_, view, out: &mut Vec<Assignment>| {
        out.retain(|a| {
            let plan = view.plan(a.task, a.machine);
            plan.remote_reads.iter().all(|&(_, b)| b > 0.0)
        });
    });
    let (policy, seen) = PlanAudit::wrap(Box::new(random), FANIN);
    assert!(s.run_with(policy).outcome.all_jobs_completed());
    seen.take()
}

/// A wide map stage (six sources, over the fan-in bound, two machines left
/// without output), a narrow one (two sources), one whose readers mix a
/// stored block in, and zero-byte inputs throughout.
#[test]
fn audit_covers_both_sides_of_the_fanin_bound() {
    let shape = |maps, mixed| JobShape {
        maps,
        inputs_per_map: 2,
        pool: 4,
        zero_byte_input: true,
        equal_out: false,
        reduces: 2,
        mixed,
    };
    let seen = run(&[shape(6, false), shape(2, false), shape(3, true)], 11);
    assert!(seen.same_plan_checks > 0, "{seen:?}");
    assert!(seen.local_machines > 0, "{seen:?}");
    assert!(seen.shuffle_under_fanin > 0, "{seen:?}");
    assert!(seen.shuffle_at_fanin > 0, "{seen:?}");
}

/// The ranked walk's corners: stages with one source fewer than the
/// fan-in bound, as many, and one more, with even and uneven outputs (even
/// ones tie at the bound, broken by machine id), read from hosts inside
/// the kept set, at its edge and past it.
#[test]
fn ranked_plans_cover_the_fanin_bound_ties_and_host_ranks() {
    let shape = |maps, equal_out| JobShape {
        maps,
        inputs_per_map: 1,
        pool: 3,
        zero_byte_input: false,
        equal_out,
        reduces: 2,
        mixed: false,
    };
    let jobs: Vec<_> = [FANIN - 1, FANIN, FANIN + 1, N_MACHINES - 2]
        .into_iter()
        .flat_map(|maps| [shape(maps, false), shape(maps, true)])
        .collect();
    let seen = run(&jobs, 5);
    assert!(seen.ranked_checks > 0, "{seen:?}");
    assert!(seen.tied_at_bound > 0, "{seen:?}");
    for n in [FANIN - 1, FANIN, FANIN + 1] {
        assert!(seen.source_counts.contains(&n), "{seen:?}");
    }
    assert!(seen.host_inside > 0, "{seen:?}");
    assert!(seen.host_at_edge > 0, "{seen:?}");
    assert!(seen.host_outside > 0, "{seen:?}");
    assert!(seen.within_margin > 0, "{seen:?}");
}
