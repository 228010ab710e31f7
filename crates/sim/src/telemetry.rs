//! Per-heartbeat cluster telemetry sampling.
//!
//! Computes one [`TelemetrySample`] from the live simulation state — the
//! numbers behind the paper's cluster-state curves (utilization Figs
//! 5/6, backlog, efficiency §5): per-resource allocation and usage
//! fractions, a fragmentation score, pending/running/abandoned counts,
//! suspect-machine count, and instantaneous packing efficiency against
//! the one-big-bin `upper_bound` relaxation.
//!
//! Everything here is a pure read of ledger state driven by simulated
//! time — no wall clocks, no RNG — so the resulting stream is
//! byte-identical across repeated runs. The engine calls
//! [`sample_cluster`] once per heartbeat, after the scheduling pass, and
//! only when a collector is attached: runs without telemetry never pay
//! for (or observe) any of this.

use tetris_obs::{ResourceUtil, TelemetrySample};
use tetris_resources::{Resource, ResourceVec};

use crate::state::SimState;
use crate::tracker::SUSPECT_THRESHOLD;

/// Component-wise fraction of `v` over `cap` (0 where capacity is 0),
/// exploded into the self-describing per-resource fields of
/// [`ResourceUtil`].
fn frac(v: &ResourceVec, cap: &ResourceVec) -> ResourceUtil {
    let f = |r: Resource| {
        let c = cap.get(r);
        if c > 0.0 {
            v.get(r) / c
        } else {
            0.0
        }
    };
    ResourceUtil {
        cpu: f(Resource::Cpu),
        mem: f(Resource::Mem),
        disk_read: f(Resource::DiskRead),
        disk_write: f(Resource::DiskWrite),
        net_in: f(Resource::NetIn),
        net_out: f(Resource::NetOut),
    }
}

/// One telemetry point from the current state. See the module docs for
/// the metric definitions; the two derived scores are:
///
/// * **fragmentation** — the fraction of pending tasks whose stage's
///   representative demand fits in the cluster's *aggregate* free ledger
///   capacity but on no *single* up machine. These tasks are runnable in
///   the one-big-bin relaxation yet stranded by how the free space is
///   scattered — exactly the resource fragmentation of paper §1/§5.
/// * **packing_efficiency** — allocated ÷ ideally-allocatable on the
///   dominant dimension, where the ideal is the instantaneous
///   `upper_bound` oracle bin: `min(capacity, allocated + pending
///   demand)` per resource. 1.0 means the bottleneck resource is as full
///   as any scheduler could make it right now; lower values quantify
///   capacity the backlog could use but the packing left stranded.
pub(crate) fn sample_cluster(state: &SimState) -> TelemetrySample {
    let mut cluster_allocated = ResourceVec::zero();
    let mut cluster_usage = ResourceVec::zero();
    let mut running = 0usize;
    let mut suspect = 0usize;
    let mut down = 0usize;
    // Ledger-free capacity per up machine, and its cluster aggregate.
    let mut free: Vec<ResourceVec> = Vec::with_capacity(state.machines.len());
    let mut agg_free = ResourceVec::zero();
    for ms in &state.machines {
        cluster_allocated += ms.allocated;
        cluster_usage += ms.usage(&state.flows);
        running += ms.running;
        if ms.down {
            down += 1;
            free.push(ResourceVec::zero());
            continue;
        }
        if ms.suspicion >= SUSPECT_THRESHOLD {
            suspect += 1;
        }
        let avail = (ms.capacity - ms.allocated).clamp_non_negative();
        agg_free += avail;
        free.push(avail);
    }

    // Walk pending stages once: backlog size, aggregate pending demand
    // (stage-representative × count, the §4.1 idiom — tasks of a stage
    // share a demand profile), and strandedness for the fragmentation
    // score.
    let mut pending = 0usize;
    let mut stranded = 0usize;
    let mut pending_demand = ResourceVec::zero();
    for job in state.jobs.iter().filter(|j| j.is_active()) {
        for stage in &job.stages {
            if stage.pending.is_empty() {
                continue;
            }
            let n = stage.pending.len();
            pending += n;
            let rep = state.spec(stage.pending[0]).demand;
            pending_demand += rep * n as f64;
            if rep.fits_within(&agg_free) && !free.iter().any(|f| rep.fits_within(f)) {
                stranded += n;
            }
        }
    }
    let fragmentation = if pending == 0 {
        0.0
    } else {
        stranded as f64 / pending as f64
    };

    // Instantaneous one-big-bin oracle: the most the cluster could have
    // allocated right now is capped by capacity and by demand.
    let cap = state.total_capacity;
    let ideal = (cluster_allocated + pending_demand).min(&cap);
    let mut dominant = None::<(f64, Resource)>;
    for r in Resource::ALL {
        if cap.get(r) > 0.0 {
            let share = ideal.get(r) / cap.get(r);
            if dominant.is_none_or(|(best, _)| share > best) {
                dominant = Some((share, r));
            }
        }
    }
    let packing_efficiency = match dominant {
        Some((_, r)) if ideal.get(r) > f64::EPSILON => {
            (cluster_allocated.get(r) / ideal.get(r)).clamp(0.0, 1.0)
        }
        // No demand anywhere (or a zero-capacity cluster): nothing a
        // better packing could improve.
        _ => 1.0,
    };

    TelemetrySample {
        t: state.now.as_secs(),
        alloc: frac(&cluster_allocated, &cap),
        usage: frac(&cluster_usage, &cap),
        fragmentation,
        packing_efficiency,
        pending_tasks: pending,
        running_tasks: running,
        abandoned_tasks: state.tasks_abandoned,
        suspect_machines: suspect,
        down_machines: down,
    }
}
