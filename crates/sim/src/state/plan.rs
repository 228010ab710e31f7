//! The placement plan: where a task's input bytes would come from if it
//! ran on a candidate machine, what it would demand there and at each
//! remote source, and how long it would take at peak allocation (paper
//! §3.1, eqn. 5). Policies plan through the view; `apply_assignment`
//! charges the plan it resolves. Reads the ledger and stage outputs,
//! writes nothing but the plan counter and, as stages finish, their
//! rankings.

use std::sync::atomic::Ordering;

use tetris_resources::{Resource, ResourceVec};
use tetris_workload::{InputSource, InputSpec, TaskUid};

use super::SimState;
use crate::cluster::MachineId;

/// Resolved placement of a task on a candidate machine: what it would
/// demand locally and at each remote input source, and how long it would
/// take at peak allocation (paper eqn. 5 with peak rates).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementPlan {
    /// Peak demand at the host, adjusted for placement (NetIn only when
    /// some input is remote; DiskRead only when some input is local).
    pub local: ResourceVec,
    /// Peak demand at each remote source (DiskRead + NetOut there).
    pub remote: Vec<(MachineId, ResourceVec)>,
    /// Bytes read from the host's disks.
    pub local_read_bytes: f64,
    /// Bytes read from each remote source.
    pub remote_reads: Vec<(MachineId, f64)>,
    /// Estimated duration at peak allocation, seconds.
    pub est_duration: f64,
}

/// Relative rounding allowance of the placement plan's one monotonicity
/// claim: a task whose inputs are all shuffle reads asks each source `s`
/// of its all-remote plan, on any host but `s`, for at least that plan's
/// demand at `s` times `1 − SHUFFLE_SHARE_MARGIN`. The exact shares obey
/// it with no margin (a host that holds output leaves the source list, so
/// the kept sum cannot grow); the computed ones differ from them by a few
/// ulps a summed source. Pinned by `tests/prop_plan.rs`; Tetris's
/// `blocked` memo leans on it (DESIGN.md §9).
pub const SHUFFLE_SHARE_MARGIN: f64 = 1e-9;

impl SimState {
    /// Rank a finished stage's output map for `ranked_reads`, if it has
    /// more sources than the fan-in bound keeps (below it the general
    /// path neither sorts nor truncates). Once per stage: a finished
    /// stage's map never changes again.
    pub(super) fn rank_stage(&mut self, ji: usize, si: usize) {
        let outs = &self.jobs[ji].stages[si].out_by_machine;
        if outs.len() <= self.cfg.shuffle_fanin {
            return;
        }
        let mut rank = outs.clone();
        rank.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if self.shuffle_ranks.len() <= ji {
            self.shuffle_ranks.resize_with(ji + 1, Vec::new);
        }
        let job = &mut self.shuffle_ranks[ji];
        if job.len() <= si {
            job.resize_with(si + 1, Vec::new);
        }
        job[si] = rank;
    }

    /// Resolve where a task's input bytes would come from if placed on
    /// `machine`, and what it would demand locally/remotely.
    pub(crate) fn placement_plan(&self, uid: TaskUid, machine: MachineId) -> PlacementPlan {
        let mut plan = PlacementPlan::default();
        self.placement_plan_into(uid, machine, &mut plan);
        plan
    }

    /// True if placing `uid` on `machine` could read any input from the
    /// machine's own disks: a stored input with a replica there, or a
    /// shuffle input whose upstream stage left output there. On every
    /// machine where this is false the placement plan is the *same
    /// value* — all inputs remote, sources fixed by `replicas[uid % len]`
    /// and `out_by_machine`, fan-in truncation included (pinned by
    /// `tests/prop_plan.rs`) — which is what lets a policy that saw the
    /// plan fail on a remote source skip every other such machine.
    /// Allocation-free.
    pub(crate) fn task_reads_locally(&self, uid: TaskUid, machine: MachineId) -> bool {
        let (ji, _, _) = self.loc(uid);
        self.spec(uid)
            .inputs
            .iter()
            .any(|input| match input.source {
                InputSource::Stored(b) => self.blocks[b.index()].contains(&machine),
                InputSource::Shuffle { stage } => self.jobs[ji].stages[stage]
                    .out_by_machine
                    .binary_search_by_key(&machine, |&(m, _)| m)
                    .is_ok(),
            })
    }

    /// The read half of a plan, for any task: bytes read from the host's
    /// disks (returned) and from each remote source (`remote`, sorted by
    /// machine), the fan-in bound applied.
    fn general_reads(
        &self,
        uid: TaskUid,
        machine: MachineId,
        remote: &mut Vec<(MachineId, f64)>,
    ) -> f64 {
        let spec = self.spec(uid);
        let (ji, _, _) = self.loc(uid);
        let mut local_bytes = 0.0f64;
        // Bytes per remote source, kept sorted by machine and summed in
        // input order: the sorted map this used to build, key for key
        // and `+=` for `+=`, in the plan's own vector. A shuffle stage's
        // sources arrive in machine order, so its inserts are appends.
        remote.clear();
        let mut add_remote =
            |src: MachineId, bytes: f64| match remote.binary_search_by_key(&src, |&(m, _)| m) {
                Ok(i) => remote[i].1 += bytes,
                Err(i) => remote.insert(i, (src, bytes)),
            };

        for input in &spec.inputs {
            match input.source {
                InputSource::Stored(b) => {
                    let replicas = &self.blocks[b.index()];
                    if replicas.contains(&machine) {
                        local_bytes += input.bytes;
                    } else {
                        // Deterministic replica choice, spread by uid.
                        add_remote(replicas[uid.index() % replicas.len()], input.bytes);
                    }
                }
                InputSource::Shuffle { stage } => {
                    let st = &self.jobs[ji].stages[stage];
                    if st.total_out <= 0.0 {
                        // Upstream produced no bytes; nothing to read.
                        continue;
                    }
                    let frac = input.bytes / st.total_out;
                    for &(m, bytes) in &st.out_by_machine {
                        let share = bytes * frac;
                        if share <= 0.0 {
                            continue;
                        }
                        if m == machine {
                            local_bytes += share;
                        } else {
                            add_remote(m, share);
                        }
                    }
                }
            }
        }

        // Bound shuffle fan-in: keep the largest contributors, fold the
        // tail's bytes into them proportionally (bytes conserved).
        if remote.len() > self.cfg.shuffle_fanin {
            // `total_cmp`: a NaN byte count from a trace file takes a place
            // in the order instead of panicking; on finite positive bytes
            // it is the order `partial_cmp` gave.
            remote.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let kept: f64 = remote[..self.cfg.shuffle_fanin]
                .iter()
                .map(|(_, b)| b)
                .sum();
            let tail: f64 = remote[self.cfg.shuffle_fanin..]
                .iter()
                .map(|(_, b)| b)
                .sum();
            remote.truncate(self.cfg.shuffle_fanin);
            if kept > 0.0 {
                let scale = (kept + tail) / kept;
                for (_, b) in remote.iter_mut() {
                    *b *= scale;
                }
            }
            remote.sort_by_key(|(m, _)| *m);
        }
        local_bytes
    }

    /// [`SimState::general_reads`] in O(sources) for a task whose one
    /// input is a shuffle of a ranked stage (`rank_stage`), or `None` for
    /// the general path to answer. Walking the ranking without the host
    /// visits the sources in the order the general path sorts them into,
    /// with every share computed as it computes them (`bytes * frac`), so
    /// `kept` and `tail` add the same values in the same order and every
    /// float is bit-identical. The one way the orders part: two sources
    /// whose bytes differ but whose shares round equal are sorted by
    /// machine there and by bytes here. That matters only when such a run
    /// of equal shares straddles the kept/tail boundary (elsewhere it
    /// swaps equal addends); the walk detects it and falls back.
    fn ranked_reads(
        &self,
        uid: TaskUid,
        machine: MachineId,
        remote: &mut Vec<(MachineId, f64)>,
    ) -> Option<f64> {
        let [InputSpec {
            source: InputSource::Shuffle { stage },
            bytes,
        }] = self.spec(uid).inputs[..]
        else {
            return None;
        };
        let (ji, _, _) = self.loc(uid);
        let rank = self.shuffle_ranks.get(ji)?.get(stage)?;
        if rank.is_empty() {
            return None; // unfinished, or no more sources than the bound keeps
        }
        let frac = bytes / self.jobs[ji].stages[stage].total_out;
        let fanin = self.cfg.shuffle_fanin;
        remote.clear();
        let (mut local_bytes, mut kept, mut tail) = (0.0f64, 0.0f64, 0.0f64);
        let mut sources = 0;
        // The run of equal shares the walk is in: its share, its first
        // source's bytes, and how many sources preceded it.
        let (mut run_share, mut run_bytes, mut run_start) = (f64::NAN, 0.0, 0);
        for &(m, out) in rank {
            let share = out * frac;
            if !(share > 0.0) {
                return None;
            }
            if m == machine {
                local_bytes += share;
                continue;
            }
            if share != run_share {
                (run_share, run_bytes, run_start) = (share, out, sources);
            } else if sources >= fanin && run_start < fanin && out != run_bytes {
                return None;
            }
            if sources < fanin {
                kept += share;
                remote.push((m, share));
            } else {
                tail += share;
            }
            sources += 1;
        }
        if sources > fanin {
            let scale = (kept + tail) / kept;
            for (_, b) in remote.iter_mut() {
                *b *= scale;
            }
        }
        remote.sort_unstable_by_key(|&(m, _)| m);
        Some(local_bytes)
    }

    /// Debug builds re-derive every ranked plan's reads by the general
    /// path (the rest of a plan is computed from them by one code path):
    /// every float bit-equal.
    #[cfg(debug_assertions)]
    fn assert_ranked(&self, uid: TaskUid, m: MachineId, local: f64, remote: &[(MachineId, f64)]) {
        let mut general = Vec::new();
        let general_local = self.general_reads(uid, m, &mut general);
        let bits = |reads: &[(MachineId, f64)]| -> Vec<_> {
            reads.iter().map(|&(m, b)| (m, b.to_bits())).collect()
        };
        assert!(
            local.to_bits() == general_local.to_bits() && bits(remote) == bits(&general),
            "ranked plan of {uid:?} on {m:?}: {local} {remote:?}, general: {general_local} {general:?}"
        );
    }

    /// [`SimState::placement_plan`] into a caller-owned plan: every field
    /// of `plan` is overwritten and its two vectors are reused, so a
    /// caller that keeps one plan across calls allocates nothing once
    /// they have grown to the widest fan-in seen.
    pub(crate) fn placement_plan_into(
        &self,
        uid: TaskUid,
        machine: MachineId,
        plan: &mut PlacementPlan,
    ) {
        self.plans.fetch_add(1, Ordering::Relaxed);
        let spec = self.spec(uid);
        let local_bytes = match self.ranked_reads(uid, machine, &mut plan.remote_reads) {
            Some(local_bytes) => {
                #[cfg(debug_assertions)]
                self.assert_ranked(uid, machine, local_bytes, &plan.remote_reads);
                local_bytes
            }
            None => self.general_reads(uid, machine, &mut plan.remote_reads),
        };
        let remote = &plan.remote_reads;

        let remote_total: f64 = remote.iter().map(|(_, b)| b).sum();
        let d = spec.demand;
        let d_dr = d.get(Resource::DiskRead);
        let d_ni = d.get(Resource::NetIn);
        // Effective peak remote-read rate: fall back to the disk-read rate
        // when the spec declares no NetIn demand (e.g. a map task expected
        // to be local but placed remotely — an estimation miss the paper's
        // tracker would catch).
        let d_ni_eff = if d_ni > 0.0 { d_ni } else { d_dr };

        let mut local = d;
        local.set(
            Resource::DiskRead,
            if local_bytes > 0.0 { d_dr } else { 0.0 },
        );
        local.set(
            Resource::NetIn,
            if remote_total > 0.0 { d_ni_eff } else { 0.0 },
        );
        local.set(Resource::NetOut, 0.0);

        // Per-source transfer caps: the reader's share of its NetIn
        // demand, additionally bounded by what the source's disk and NIC
        // can physically serve (otherwise a demand no machine can satisfy
        // would make the task permanently unplaceable).
        plan.remote.clear();
        plan.remote.extend(remote.iter().map(|&(m, bytes)| {
            let src_cap = self.machines[m.index()].capacity;
            let share = (d_ni_eff * bytes / remote_total)
                .min(src_cap.get(Resource::DiskRead))
                .min(src_cap.get(Resource::NetOut))
                .max(1e-3); // keep caps positive so flows always drain
            (
                m,
                ResourceVec::zero()
                    .with(Resource::DiskRead, share)
                    .with(Resource::NetOut, share),
            )
        }));

        // Eqn. 5 at peak allocation.
        let mut est: f64 = 0.0;
        if spec.cpu_work > 0.0 {
            est = est.max(spec.cpu_work / d.get(Resource::Cpu));
        }
        if spec.output_bytes > 0.0 {
            est = est.max(spec.output_bytes / d.get(Resource::DiskWrite));
        }
        if local_bytes > 0.0 {
            est = est.max(local_bytes / d_dr);
        }
        for (&(_, bytes), (_, dem)) in remote.iter().zip(&plan.remote) {
            est = est.max(bytes / dem.get(Resource::DiskRead));
        }

        plan.local = local;
        plan.local_read_bytes = local_bytes;
        plan.est_duration = est;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::params;
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::SimConfig;
    use crate::events::FlowId;
    use crate::state::Phase;
    use crate::time::SimTime;
    use tetris_resources::{units::MB, MachineSpec};
    use tetris_workload::{JobId, TaskParams, Workload, WorkloadBuilder};

    /// A state on `machines` `paper_small` machines under `cfg`, the job
    /// arrived.
    fn arrived(machines: usize, w: Workload, cfg: SimConfig) -> SimState {
        let cluster = ClusterConfig::uniform(machines, MachineSpec::paper_small());
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        st
    }

    fn replicated(replication: usize) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.replication = replication;
        cfg
    }

    #[test]
    fn remote_read_creates_three_link_flow() {
        // Task reads a stored block not replicated on its host.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(100.0 * MB);
        b.add_stage(j, "s", vec![], 1, |_| params(1.0, 10.0, vec![input]));
        let mut st = arrived(4, b.finish(), replicated(1));
        let replica = st.blocks[0][0];
        // Place on a different machine.
        let host = MachineId((replica.index() + 1) % 4);
        let plan = st.placement_plan(TaskUid(0), host);
        assert!(!plan.remote.is_empty());
        assert_eq!(plan.remote_reads, vec![(replica, 100.0 * MB)]);
        assert_eq!(plan.local_read_bytes, 0.0);
        assert!(plan.local.get(Resource::NetIn) > 0.0);
        assert_eq!(plan.local.get(Resource::DiskRead), 0.0);

        st.apply_assignment(TaskUid(0), host);
        st.recompute_dirty();
        // cpu flow + remote read flow.
        assert_eq!(st.flows.len(), 2);
        let remote_flow = &st.flows[1];
        assert_eq!(remote_flow.links.len(), 3);
        // Remote source charged for DiskRead + NetOut.
        assert!(st.machines[replica.index()].allocated.get(Resource::NetOut) > 0.0);
    }

    #[test]
    fn local_placement_has_no_remote_demand() {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(100.0 * MB);
        b.add_stage(j, "s", vec![], 1, |_| params(1.0, 10.0, vec![input]));
        let st = arrived(4, b.finish(), replicated(2));
        let replica = st.blocks[0][0];
        let plan = st.placement_plan(TaskUid(0), replica);
        assert!(plan.remote.is_empty());
        assert_eq!(plan.local_read_bytes, 100.0 * MB);
        assert_eq!(plan.local.get(Resource::NetIn), 0.0);
        assert!(plan.local.get(Resource::DiskRead) > 0.0);
    }

    #[test]
    fn shuffle_distribution_feeds_downstream_plan() {
        // map (2 tasks) → reduce (1 task); maps write output, reduce reads
        // it from wherever maps ran.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let in0 = b.stored_input(10.0 * MB);
        let in1 = b.stored_input(10.0 * MB);
        b.add_stage(j, "map", vec![], 2, |i| TaskParams {
            output_bytes: 50.0 * MB,
            ..params(1.0, 5.0, vec![if i == 0 { in0 } else { in1 }])
        });
        let shuffle = InputSpec {
            source: InputSource::Shuffle { stage: 0 },
            bytes: 100.0 * MB,
        };
        b.add_stage(j, "reduce", vec![0], 1, |_| TaskParams {
            output_bytes: 10.0 * MB,
            ..params(1.0, 5.0, vec![shuffle])
        });
        let mut st = arrived(3, b.finish(), SimConfig::default());
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.apply_assignment(TaskUid(1), MachineId(1));
        st.recompute_dirty();
        // Finish both maps.
        st.now = SimTime::from_secs(5.1);
        for fid in 0..st.flows.len() {
            if let Some(t) = st.flow_done(FlowId(fid)) {
                st.task_complete(t);
            }
        }
        // Reduce unlocked; its plan on machine 0 reads 50 MB locally,
        // 50 MB from machine 1.
        assert!(matches!(st.tasks[2].phase, Phase::Runnable));
        let plan = st.placement_plan(TaskUid(2), MachineId(0));
        assert!((plan.local_read_bytes - 50.0 * MB).abs() < 1.0);
        assert_eq!(plan.remote_reads.len(), 1);
        assert_eq!(plan.remote_reads[0].0, MachineId(1));
        assert!((plan.remote_reads[0].1 - 50.0 * MB).abs() < 1.0);
    }

    /// One task reading eight 10 MB stored blocks, one replica each, on
    /// sixteen machines with fan-in 3.
    fn eight_block_reader() -> (Workload, SimConfig) {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let inputs: Vec<_> = (0..8).map(|_| b.stored_input(10.0 * MB)).collect();
        b.add_stage(j, "s", vec![], 1, |_| params(1.0, 10.0, inputs.clone()));
        let mut cfg = replicated(1);
        cfg.shuffle_fanin = 3;
        cfg.seed = 7;
        (b.finish(), cfg)
    }

    #[test]
    fn fanin_cap_preserves_bytes() {
        // Remote map from many sources with a tight fan-in.
        let (w, cfg) = eight_block_reader();
        let st = arrived(16, w, cfg);
        // Find a host with no replicas.
        let host = (0..16)
            .map(MachineId)
            .find(|m| !st.blocks.iter().any(|r| r.contains(m)))
            .expect("some machine without replicas");
        let plan = st.placement_plan(TaskUid(0), host);
        assert!(plan.remote_reads.len() <= 3);
        let total: f64 =
            plan.remote_reads.iter().map(|(_, b)| b).sum::<f64>() + plan.local_read_bytes;
        assert!(
            (total - 80.0 * MB).abs() < 1.0,
            "bytes not conserved: {total}"
        );
    }

    #[test]
    fn ranked_reads_fall_back_where_rounding_ties_straddle_the_bound() {
        // Five map outputs, fan-in 3: 40 and 30 MB on machines 0 and 1,
        // `x` on 2 and the next float up on 3, 1 MB on 4. The ranking puts
        // 3 before 2; a reader of a `frac` that rounds both shares equal
        // has them straddle the bound in the general path's order, which
        // breaks the tie by machine and keeps 2.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let task = |inputs| TaskParams {
            output_bytes: MB,
            ..params(1.0, 5.0, inputs)
        };
        b.add_stage(j, "map", vec![], 5, |_| task(vec![]));
        let shuffle = |bytes| {
            vec![InputSpec {
                source: InputSource::Shuffle { stage: 0 },
                bytes,
            }]
        };
        b.add_stage(j, "reduce", vec![0], 1, |_| task(shuffle(MB)));
        let mut w = b.finish();
        let x = 20.0 * MB + 0.3;
        let outs = [40.0 * MB, 30.0 * MB, x, x.next_up(), MB];
        let total: f64 = outs.iter().sum();
        let tied = |bytes: f64| x * (bytes / total) == x.next_up() * (bytes / total);
        let bytes = (1..10_000).map(|k| k as f64 * 1e3).find(|&b| tied(b));
        w.jobs_mut()[0].stages[1].tasks[0].inputs = shuffle(bytes.expect("a frac that ties them"));
        let mut cfg = SimConfig::default();
        cfg.shuffle_fanin = 3;
        let mut st = SimState::new(
            ClusterConfig::uniform(6, MachineSpec::paper_small()),
            w,
            cfg,
        );
        let stage = &mut st.jobs[0].stages[0];
        stage.out_by_machine = outs
            .iter()
            .enumerate()
            .map(|(m, &b)| (MachineId(m), b))
            .collect();
        stage.total_out = total;
        stage.finished = stage.total;
        st.rank_stage(0, 0);
        let reader = TaskUid(5);
        let mut reads = Vec::new();
        assert_eq!(st.ranked_reads(reader, MachineId(5), &mut reads), None);
        let kept: Vec<_> = st.placement_plan(reader, MachineId(5)).remote_reads;
        let kept: Vec<_> = kept.iter().map(|&(m, _)| m.index()).collect();
        assert_eq!(kept, [0, 1, 2]);
        // Read from machine 0 the tied pair sits inside the kept set: the
        // walk answers, bit for bit the general path's answer.
        let local = st.ranked_reads(reader, MachineId(0), &mut reads);
        let mut general = Vec::new();
        let general_local = st.general_reads(reader, MachineId(0), &mut general);
        assert_eq!(local.map(f64::to_bits), Some(general_local.to_bits()));
        let bits =
            |r: &[(MachineId, f64)]| r.iter().map(|&(m, b)| (m, b.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&reads), bits(&general));
    }

    #[test]
    fn nan_input_bytes_plan_instead_of_panicking() {
        // `Workload::validate` refuses a NaN byte count, and a state built
        // around it still plans: with more sources than the fan-in bound
        // the plan sorts sources by bytes — `partial_cmp().unwrap()`
        // panicked on the NaN here.
        let (mut w, cfg) = eight_block_reader();
        w.jobs_mut()[0].stages[0].tasks[0].inputs[2].bytes = f64::NAN;
        let refused = tetris_workload::ValidationError::BadInputBytes(TaskUid(0));
        assert_eq!(w.validate(), Err(refused));
        let st = arrived(16, w, cfg);
        for m in (0..16).map(MachineId) {
            let plan = st.placement_plan(TaskUid(0), m);
            assert!(plan.remote_reads.len() <= 3);
            assert_eq!(plan.remote.len(), plan.remote_reads.len());
        }
    }
}
