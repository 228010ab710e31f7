//! Timer-free memory gate on the Table 8 backlog (paper §5.2.2): the
//! bytes one [`ScheduleProbe`] holds beyond the workload it was built
//! from, a task of the backlog. A counting global allocator reads them,
//! so the figure is exact and the same on every host, unlike the peak
//! RSS `perfbench heartbeat_backlog` reports.
//!
//! One test in this binary: the allocator counts the whole process, and
//! a second test running beside it would count into the same figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use tetris_resources::MachineSpec;
use tetris_sim::probe::ScheduleProbe;
use tetris_sim::{ClusterConfig, SimConfig};
use tetris_workload::{Workload, WorkloadSuiteConfig};

/// The system allocator, counting the bytes live in the process.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: usize, sign: isize) {
    LIVE.fetch_add(sign * bytes as isize, Ordering::Relaxed);
}

// SAFETY: every call goes to `System` with the caller's arguments
// unchanged; the counter only reads the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(layout.size(), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(layout.size(), -1);
            count(new_size, 1);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Suite jobs at `perfbench heartbeat_backlog`'s shape (every job
/// arriving within a second, scale 0.125) until their map stages hold at
/// least `n` tasks.
fn pending_workload(n: usize) -> Workload {
    let mut jobs = (n / 90).max(1);
    loop {
        let mut cfg = WorkloadSuiteConfig::scaled(jobs, 0.125);
        cfg.arrival_horizon = 1.0;
        let w = cfg.generate(42);
        let maps: usize = w.jobs.iter().map(|j| j.stages[0].len()).sum();
        if maps >= n {
            return w;
        }
        jobs += (jobs / 4).max(1);
    }
}

#[test]
fn a_backlog_state_holds_few_bytes_a_task() {
    let workload = pending_workload(12_000);
    let cluster = ClusterConfig::uniform(100, MachineSpec::paper_large());
    let tasks = workload.num_tasks();

    let before = LIVE.load(Ordering::Relaxed);
    let probe = ScheduleProbe::new(cluster, workload.clone(), SimConfig::default());
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(probe.pending() >= 10_000, "{} pending", probe.pending());

    // The state reads 56.2 bytes a task here: a 16-byte `TaskState`,
    // 12 bytes of `task_loc`, 8 of pending uid lists, 11 of block
    // replicas (13 bytes a block) and the machines, jobs and stages. The
    // bound leaves 14 %, less than the 8 bytes a task one more word in
    // `TaskState` would add.
    let per_task = held as f64 / tasks as f64;
    println!("{held} bytes for {tasks} tasks: {per_task:.1} a task");
    assert!(per_task <= 64.0, "{per_task:.1} bytes a task");
}
