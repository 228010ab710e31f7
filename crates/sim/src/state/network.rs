//! The flow and link model that makes task durations placement- and
//! contention-dependent (paper eqn. 5).
//!
//! Every running task is decomposed into *flows*: a CPU flow, a local
//! disk-write flow, a local disk-read flow, and one flow per remote input
//! source traversing `(src DiskRead) → (src NetOut) → (host NetIn)`. Each
//! flow has a rate cap derived from the task's peak demands and a remaining
//! amount of work; the task completes when all its flows complete.
//!
//! Each `(machine, resource)` pair is a *link*. When the sum of flow caps
//! on a link exceeds its capacity, every flow on it is scaled by
//! `capacity / Σcaps`; a flow's rate is its cap times the minimum scale
//! factor across its links (times a thrashing factor when the host's
//! memory is over-committed). This one-pass proportional-share model is a
//! deliberate simplification of full max–min fairness: it never
//! over-assigns a link, it reproduces the contention behaviour the paper
//! relies on ("two tasks that can both use all of the available network
//! bandwidth ... will take twice as long to finish"), and it requires no
//! iteration, so rates can be recomputed incrementally as tasks come and
//! go. The difference from exact max–min (unclaimed headroom is not
//! redistributed to unconstrained flows) only makes the simulator slightly
//! pessimistic for *all* schedulers equally.
//!
//! The state owns the dirty set and the event queue: every change to a
//! link's demand or a machine's memory marks it in `dirty`, and
//! `recompute_dirty` re-rates the flows whose factor moved and re-times
//! their one queued completion.

use tetris_resources::{Resource, ResourceVec, NUM_RESOURCES};
use tetris_workload::TaskUid;

use super::{Flow, MachineState, Phase, SimState};
use crate::cluster::MachineId;
use crate::config::Interference;
use crate::events::{EventKind, FlowId};
use crate::time::SimTime;

/// Relative tolerance under which a flow's remaining work counts as done.
const WORK_EPS_REL: f64 = 1e-9;
/// Absolute tolerance (bytes / core-seconds).
const WORK_EPS_ABS: f64 = 1e-6;

/// Thrashing exponent: a machine whose memory is over-committed by ratio
/// ρ > 1 runs every hosted task at `max((1/ρ)^THRASH_EXPONENT,
/// THRASH_FLOOR)`. Exponent 1 would be work-conserving time-sharing; real
/// paging wastes disk bandwidth and CPU, so it is superlinear (paper §3.1:
/// runtime can be "arbitrarily worse" under memory pressure, and slot
/// schedulers over-commit memory because slots are counted, not sized).
const THRASH_EXPONENT: f64 = 1.35;
/// Lower bound on the thrashing factor (real systems bound the meltdown
/// with OOM kills and swap ceilings).
const THRASH_FLOOR: f64 = 0.25;

impl Flow {
    fn is_complete(&self) -> bool {
        self.remaining <= (self.init_work * WORK_EPS_REL).max(WORK_EPS_ABS)
    }
}

impl MachineState {
    /// Scale factor of a link: 1 when demand fits, else
    /// effective-capacity/demand, where effective capacity shrinks with
    /// over-subscription per the interference model (disk seeks, incast).
    #[inline]
    fn factor(&self, r: Resource, interference: &Interference) -> f64 {
        let mut cap = self.capacity.get(r);
        if self.slowdown < 1.0 && r != Resource::Cpu && r != Resource::Mem {
            // Straggler window: the disk/NIC delivers only a fraction of
            // nominal bandwidth (fault injection; never taken when
            // faults are disabled).
            cap *= self.slowdown;
        }
        let demand = self.link_demand[r.index()];
        if demand <= cap || demand <= 0.0 {
            1.0
        } else {
            interference.effective_capacity(r, cap, demand) / demand
        }
    }

    /// Thrashing factor from memory over-commit:
    /// `max((cap/alloc)^THRASH_EXPONENT, THRASH_FLOOR)`.
    #[inline]
    fn thrash_factor(&self) -> f64 {
        let cap = self.capacity.get(Resource::Mem);
        let alloc = self.allocated.get(Resource::Mem);
        if alloc <= cap || alloc <= 0.0 {
            1.0
        } else {
            (cap / alloc).powf(THRASH_EXPONENT).max(THRASH_FLOOR)
        }
    }

    /// Actual usage rates on this machine right now (Σ flow rates per dim
    /// plus external load). Unlike `allocated`, this never exceeds
    /// capacity on rate dimensions.
    pub(crate) fn usage(&self, flows: &[Flow]) -> ResourceVec {
        let mut u = self.external;
        for r in Resource::ALL {
            if r == Resource::Mem {
                continue;
            }
            // A flow's rate applies fully on each link it traverses.
            let mut sum = u.get(r);
            for &fid in &self.link_flows[r.index()] {
                sum += flows[fid.0].rate;
            }
            u.set(r, sum);
        }
        // Memory usage = allocated memory (space resource).
        u.set(Resource::Mem, self.allocated.get(Resource::Mem));
        u
    }
}

/// Dirty-set accumulated while mutating state; drives incremental rate
/// recomputation.
///
/// Allocation-free across events: membership is tracked by generation
/// stamps (one `u64` per (machine, dim) slot / machine / flow) so an
/// event batch never allocates once the stamp tables have grown to the
/// cluster and flow-table size. `recompute_dirty` drains the insertion
/// lists and bumps the generation — an O(1) clear.
#[derive(Debug, Default)]
pub(crate) struct DirtySet {
    /// (machine, dim) links whose demand changed, in insertion order.
    links: Vec<(usize, usize)>,
    /// Machines whose memory allocation changed (thrash factor).
    mem: Vec<usize>,
    /// Stamp per (machine, dim) slot: equals `gen` iff present in `links`.
    link_stamp: Vec<u64>,
    /// Stamp per machine: equals `gen` iff present in `mem`.
    mem_stamp: Vec<u64>,
    /// Stamp per flow: equals `gen` iff present in `affected`.
    flow_stamp: Vec<u64>,
    /// Current batch generation (stamp tables grow filled with `u64::MAX`,
    /// which it never reaches).
    gen: u64,
    /// Flows the next drain visits: those added since the last one, then
    /// (gathered by the drain itself) those whose bottleneck may have moved.
    affected: Vec<FlowId>,
}

impl DirtySet {
    fn is_empty(&self) -> bool {
        self.links.is_empty() && self.mem.is_empty()
    }

    /// Mark a (machine, dim) link slot dirty.
    pub(crate) fn insert_link(&mut self, mi: usize, ri: usize) {
        let idx = mi * NUM_RESOURCES + ri;
        if self.link_stamp.len() <= idx {
            self.link_stamp.resize(idx + 1, u64::MAX);
        }
        if self.link_stamp[idx] != self.gen {
            self.link_stamp[idx] = self.gen;
            self.links.push((mi, ri));
        }
    }

    /// Mark a machine's memory allocation dirty.
    pub(super) fn insert_mem(&mut self, mi: usize) {
        if self.mem_stamp.len() <= mi {
            self.mem_stamp.resize(mi + 1, u64::MAX);
        }
        if self.mem_stamp[mi] != self.gen {
            self.mem_stamp[mi] = self.gen;
            self.mem.push(mi);
        }
    }

    /// Mark a flow for the next drain's visit.
    fn insert_flow(&mut self, fid: FlowId) {
        if self.flow_stamp.len() <= fid.0 {
            self.flow_stamp.resize(fid.0 + 1, u64::MAX);
        }
        if self.flow_stamp[fid.0] != self.gen {
            self.flow_stamp[fid.0] = self.gen;
            self.affected.push(fid);
        }
    }
}

impl SimState {
    /// Recompute the factor tables from the ledgers: every change to a
    /// link's demand or a machine's memory marks it dirty, and a drain
    /// leaves each dirty entry at the value computed here.
    #[cfg(debug_assertions)]
    fn rebuild_factors(&mut self) {
        let interference = &self.cfg.interference;
        let of_links = |ms: &MachineState| Resource::ALL.map(|r| ms.factor(r, interference));
        self.link_factor = self.machines.iter().flat_map(of_links).collect();
        self.thrash = self.machines.iter().map(|ms| ms.thrash_factor()).collect();
    }

    /// Start a flow of `work` at rate cap `cap` over `links`, charging
    /// each link's demand.
    pub(super) fn add_flow(
        &mut self,
        task: TaskUid,
        host: MachineId,
        cap: f64,
        links: Vec<(MachineId, Resource)>,
        work: f64,
    ) -> FlowId {
        // Zero work (an empty remote partition) completes at `now`.
        debug_assert!(work >= 0.0, "negative work (validated input size)");
        debug_assert!(cap > 0.0, "flow must have positive cap (validated demand)");
        let fid = FlowId(self.flows.len());
        for &(m, r) in &links {
            let ms = &mut self.machines[m.index()];
            ms.link_demand[r.index()] += cap;
            ms.link_flows[r.index()].push(fid);
            ms.report_stale = true;
            self.dirty.insert_link(m.index(), r.index());
        }
        self.flows.push(Flow {
            task,
            host,
            cap,
            links,
            remaining: work,
            init_work: work,
            rate: 0.0,
            last_update: self.now,
            done: false,
        });
        self.dirty.insert_flow(fid);
        fid
    }

    /// Take a flow off its links for good (its work is done, or its
    /// attempt was torn down): done, at rate 0, its queued completion
    /// cancelled if it has one. Returns the flow's task.
    pub(super) fn retire_flow(&mut self, fid: FlowId) -> TaskUid {
        let f = &mut self.flows[fid.0];
        f.done = true;
        f.remaining = 0.0;
        f.rate = 0.0;
        self.queue.cancel(fid);
        let links = std::mem::take(&mut f.links);
        let (cap, task) = (f.cap, f.task);
        for (m, r) in links {
            let ms = &mut self.machines[m.index()];
            ms.link_demand[r.index()] = (ms.link_demand[r.index()] - cap).max(0.0);
            ms.link_flows[r.index()].retain(|&x| x != fid);
            ms.report_stale = true;
            self.dirty.insert_link(m.index(), r.index());
        }
        task
    }

    /// Current rate of a flow under the one-pass proportional model, read
    /// off the factor tables.
    fn flow_rate(&self, f: &Flow) -> f64 {
        let mut factor: f64 = 1.0;
        for &(m, r) in &f.links {
            factor = factor.min(self.link_factor[m.index() * NUM_RESOURCES + r.index()]);
        }
        f.cap * factor.min(self.thrash[f.host.index()])
    }

    /// Advance a flow's remaining work to `self.now`.
    fn advance_flow(&mut self, fid: FlowId) {
        let now = self.now;
        let f = &mut self.flows[fid.0];
        let dt = now.secs_since(f.last_update);
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.last_update = now;
    }

    /// Recompute the rates of the flows the dirty set can have moved, and
    /// re-time the completion of each whose rate changed. A rate moves
    /// only with a factor on the flow's path, so a dirty entry's flows are
    /// visited only if its factor's bits differ from the last drain's
    /// (most dirty links are under capacity, 1.0, before and after).
    pub(crate) fn recompute_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        // Gather, stamp-deduped, behind the flows added since the last
        // drain; then sort — the ascending-FlowId visit order the former
        // BTreeSet gave (event re-queue order depends on it).
        let moved = |was: &mut f64, is: f64| std::mem::replace(was, is).to_bits() != is.to_bits();
        for li in 0..self.dirty.links.len() {
            let (mi, ri) = self.dirty.links[li];
            let factor = self.machines[mi].factor(Resource::ALL[ri], &self.cfg.interference);
            if moved(&mut self.link_factor[mi * NUM_RESOURCES + ri], factor) {
                for &fid in &self.machines[mi].link_flows[ri] {
                    self.dirty.insert_flow(fid);
                }
            }
        }
        for ii in 0..self.dirty.mem.len() {
            let mi = self.dirty.mem[ii];
            if moved(&mut self.thrash[mi], self.machines[mi].thrash_factor()) {
                for &fid in self.machines[mi].link_flows.iter().flatten() {
                    if self.flows[fid.0].host.index() == mi {
                        self.dirty.insert_flow(fid);
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_unvisited_settled();
        self.dirty.links.clear();
        self.dirty.mem.clear();
        self.dirty.gen += 1;

        let mut affected = std::mem::take(&mut self.dirty.affected);
        affected.sort_unstable();
        for &fid in &affected {
            if self.flows[fid.0].done {
                continue;
            }
            self.recompute_visits += 1;
            self.advance_flow(fid);
            let new_rate = self.flow_rate(&self.flows[fid.0]);
            let f = &mut self.flows[fid.0];
            let changed = (new_rate - f.rate).abs() > 1e-12 * f.cap.max(1e-12);
            if changed {
                f.rate = new_rate;
                self.flow_retimes += 1;
                for &(m, _) in &f.links {
                    self.machines[m.index()].report_stale = true;
                }
                // No ETA at rate 0: a later link change revisits the flow.
                let eta = self.now.after_secs(f.remaining / new_rate);
                if new_rate > 0.0 && eta < SimTime::MAX {
                    self.queue.push(eta, EventKind::FlowDone { flow: fid });
                } else {
                    self.queue.cancel(fid);
                }
            }
        }
        affected.clear();
        self.dirty.affected = affected;
    }

    /// Debug builds check, at every drain, what the gather rests on: the
    /// refreshed tables are what the ledgers give everywhere, and a flow
    /// by a dirty entry that is not visited is at the rate they give. Every suite that runs the engine therefore exercises the skip.
    #[cfg(debug_assertions)]
    fn assert_unvisited_settled(&mut self) {
        let (links, thrash) = (self.link_factor.clone(), self.thrash.clone());
        self.rebuild_factors();
        let rebuilt = links == self.link_factor && thrash == self.thrash;
        assert!(rebuilt, "a factor moved outside the dirty set");
        let dirty = &self.dirty;
        let links = dirty.links.iter();
        let on_links = links.map(|&(mi, ri)| &self.machines[mi].link_flows[ri]);
        let hosted = dirty
            .mem
            .iter()
            .flat_map(|&mi| &self.machines[mi].link_flows);
        for &fid in on_links.chain(hosted).flatten() {
            let f = &self.flows[fid.0];
            let visited = dirty.flow_stamp.get(fid.0) == Some(&dirty.gen);
            let settled = (self.flow_rate(f) - f.rate).abs() <= 1e-12 * f.cap.max(1e-12);
            assert!(visited || settled, "{fid:?} skipped at a rate that moved");
        }
    }

    /// Handle a `FlowDone` event. Returns the task to complete, if this was
    /// its last flow.
    pub(crate) fn flow_done(&mut self, fid: FlowId) -> Option<TaskUid> {
        // One queued completion a flow, re-timed with its rate and
        // cancelled with its attempt: a popped one is live.
        debug_assert!(!self.flows[fid.0].done, "{fid:?} completed twice");
        self.advance_flow(fid);
        let f = &self.flows[fid.0];
        if !f.is_complete() {
            // Numerical residue: reschedule the tail.
            if f.rate > 0.0 {
                let eta = self.now.after_secs(f.remaining / f.rate);
                self.queue.push(eta, EventKind::FlowDone { flow: fid });
            }
            return None;
        }
        let task = self.retire_flow(fid);
        if let Phase::Running(ref mut info) = self.tasks[task.index()].phase {
            info.flows_left -= 1;
            if info.flows_left == 0 {
                return Some(task);
            }
        }
        None
    }

    /// Apply/remove external load on a machine's links. Indices past the
    /// end of `cfg.external_loads` address `dynamic_loads` (re-replication
    /// flows synthesized at crash time).
    pub(crate) fn set_external(&mut self, idx: usize, active: bool) {
        // A transfer aborted at crash time ignores its queued Start/End
        // events; the active flag makes the abort idempotent with the
        // load's own End. Exact no-op without faults: starts and ends
        // always alternate and nothing is ever cancelled.
        if active == self.external_active[idx] || (active && self.external_cancelled[idx]) {
            return;
        }
        self.external_active[idx] = active;
        let e = if idx < self.cfg.external_loads.len() {
            self.cfg.external_loads[idx].clone()
        } else {
            self.dynamic_loads[idx - self.cfg.external_loads.len()].clone()
        };
        let mi = e.machine.index();
        let sign = if active { 1.0 } else { -1.0 };
        for (r, v) in e.load.iter() {
            if v == 0.0 {
                continue;
            }
            let ms = &mut self.machines[mi];
            ms.link_demand[r.index()] = (ms.link_demand[r.index()] + sign * v).max(0.0);
            self.dirty.insert_link(mi, r.index());
        }
        let ms = &mut self.machines[mi];
        ms.report_stale = true;
        if active {
            ms.external += e.load;
        } else {
            ms.external = (ms.external - e.load).clamp_non_negative();
        }
        self.freed_hint.push(e.machine);
    }

    /// Enter/leave a straggler window: `factor < 1` scales the machine's
    /// effective disk/net bandwidth; `1.0` restores health.
    pub(crate) fn set_slowdown(&mut self, machine: MachineId, factor: f64) {
        let mi = machine.index();
        self.machines[mi].slowdown = factor;
        for r in [
            Resource::DiskRead,
            Resource::DiskWrite,
            Resource::NetIn,
            Resource::NetOut,
        ] {
            self.dirty.insert_link(mi, r.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{mk_state, one_stage, params};
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::SimConfig;
    use tetris_resources::{
        units::{GB, MB},
        MachineSpec,
    };
    use tetris_workload::{JobId, TaskParams, WorkloadBuilder};

    /// `n` tasks built by `task` on two machines, the job arrived.
    fn arrived(n: usize, task: TaskParams) -> SimState {
        let mut st = mk_state(one_stage(n, task));
        st.job_arrives(JobId(0));
        st
    }

    #[test]
    fn placement_creates_cpu_flow_and_event() {
        let mut st = arrived(1, params(2.0, 10.0, vec![]));
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
        assert_eq!(st.flows.len(), 1);
        assert_eq!(st.flows[0].rate, 2.0); // uncontended: full cap
        let ev = st.queue.pop().unwrap();
        assert_eq!(ev.time, SimTime::from_secs(10.0));
    }

    #[test]
    fn contention_halves_rate() {
        // Two 3-core tasks on a 4-core machine: Σcap 6 > 4 → factor 2/3.
        let mut st = arrived(2, params(3.0, 10.0, vec![]));
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.apply_assignment(TaskUid(1), MachineId(0));
        st.recompute_dirty();
        let expect = 3.0 * (4.0 / 6.0);
        assert!((st.flows[0].rate - expect).abs() < 1e-9);
        assert!((st.flows[1].rate - expect).abs() < 1e-9);
    }

    #[test]
    fn retimed_flow_fires_once_at_its_latest_eta() {
        // Two 3-core, 30 core-second tasks on a 4-core machine, the second
        // placed 4 s in: each rate change moves the one queued completion.
        let mut st = arrived(2, params(3.0, 10.0, vec![]));
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
        assert_eq!(st.queue.peek_time(), Some(SimTime::from_secs(10.0)));
        st.now = SimTime::from_secs(4.0);
        st.apply_assignment(TaskUid(1), MachineId(0));
        st.recompute_dirty();
        // Flow 0 slowed to 2 cores with 18 left; flow 1 starts at 2.
        assert_eq!(st.queue.len(), 2);
        let ev = st.queue.pop().unwrap();
        assert_eq!(ev.kind, EventKind::FlowDone { flow: FlowId(0) });
        assert_eq!(ev.time, SimTime::from_secs(13.0));
        st.now = ev.time;
        assert_eq!(st.flow_done(FlowId(0)), Some(TaskUid(0)));
        st.recompute_dirty();
        // Flow 1 speeds back up to 3 cores with 12 left: moved up, once.
        assert_eq!(st.queue.len(), 1);
        let ev = st.queue.pop().unwrap();
        assert_eq!(ev.kind, EventKind::FlowDone { flow: FlowId(1) });
        assert_eq!(ev.time, SimTime::from_secs(17.0));
        assert_eq!((st.recompute_visits, st.flow_retimes), (4, 4));
    }

    #[test]
    fn thrashing_slows_overcommitted_machine() {
        // Two tasks each demanding 12 GB on a 16 GB machine → 24/16 = 1.5×
        // over-commit → thrash factor 2/3.
        let mut st = arrived(
            2,
            TaskParams {
                mem: 12.0 * GB,
                ..params(1.0, 10.0, vec![])
            },
        );
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.apply_assignment(TaskUid(1), MachineId(0));
        st.recompute_dirty();
        // CPU link uncontended (2 ≤ 4) but memory 24 GB > 16 GB:
        // thrash factor (16/24)^1.35.
        let expect = 1.0 * (16.0f64 / 24.0).powf(THRASH_EXPONENT);
        assert!(
            (st.flows[0].rate - expect).abs() < 1e-9,
            "{}",
            st.flows[0].rate
        );
    }

    #[test]
    fn zero_byte_remote_input_completes_the_instant_it_starts() {
        // Legal input. Debug builds used to trip `add_flow`'s assert on it
        // while release builds ran it as below; now both do.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(0.0);
        b.add_stage(j, "s", vec![], 1, |_| params(1.0, 10.0, vec![input]));
        let w = b.finish();
        assert_eq!(w.validate(), Ok(()));
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        st.now = SimTime::from_secs(3.0);
        let replica = st.blocks[0][0];
        let host = MachineId((replica.index() + 1) % 4);
        st.apply_assignment(TaskUid(0), host);
        st.recompute_dirty();
        // The empty read is a flow like any other, due now; the CPU flow
        // still has its 10 s.
        assert_eq!(st.flows.len(), 2);
        let ev = st.queue.pop().unwrap();
        assert_eq!(
            (ev.time, ev.kind),
            (st.now, EventKind::FlowDone { flow: FlowId(1) })
        );
        assert_eq!(st.flow_done(FlowId(1)), None);
        assert!(st.flows[1].done);
        st.recompute_dirty();
        assert_eq!(st.queue.pop().unwrap().time, SimTime::from_secs(13.0));
        assert!(st.queue.is_empty());
    }

    #[test]
    fn usage_never_exceeds_rate_capacity() {
        // Over-allocate CPU heavily; usage must stay at capacity.
        let mut st = arrived(
            6,
            TaskParams {
                mem: 0.5 * GB,
                ..params(2.0, 10.0, vec![])
            },
        );
        for i in 0..6 {
            st.apply_assignment(TaskUid(i), MachineId(0));
        }
        st.recompute_dirty();
        let usage = st.machines[0].usage(&st.flows);
        assert!(usage.get(Resource::Cpu) <= 4.0 + 1e-9);
        // Allocation ledger, by contrast, records the over-allocation.
        assert_eq!(st.machines[0].allocated.get(Resource::Cpu), 12.0);
        assert!(st.availability(MachineId(0), false).get(Resource::Cpu) < 0.0);
    }

    #[test]
    fn slowdown_scales_io_links_only() {
        // A disk-write-bound task at half disk bandwidth runs at half rate;
        // CPU links are untouched by the straggler window.
        let mut st = arrived(
            1,
            TaskParams {
                cpu_frac: 0.0,
                output_bytes: 500.0 * MB,
                ..params(1.0, 10.0, vec![])
            },
        );
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
        let dw = st
            .flows
            .iter()
            .position(|f| f.links.iter().any(|&(_, r)| r == Resource::DiskWrite))
            .expect("disk-write flow");
        let healthy = st.flows[dw].rate;
        assert!(healthy > 0.0);
        // Enter a slowdown window with a factor small enough to bite even
        // an under-subscribed link.
        let cap = st.machines[0].capacity.get(Resource::DiskWrite);
        let factor = (st.flows[dw].cap / cap) * 0.5;
        st.set_slowdown(MachineId(0), factor);
        st.recompute_dirty();
        assert!(st.flows[dw].rate < healthy);
        // Window ends: full rate restored.
        st.set_slowdown(MachineId(0), 1.0);
        st.recompute_dirty();
        assert!((st.flows[dw].rate - healthy).abs() < 1e-9);
    }
}
