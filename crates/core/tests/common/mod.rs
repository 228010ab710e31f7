//! What the crash-recovery tests share: a policy watched after each call,
//! so a test can find the heartbeat at which some private policy state
//! stands and crash a journaled run there.

use std::cell::RefCell;
use std::rc::Rc;

use tetris_sim::SchedulerPolicy;
use tetris_testkit::Audited;

/// `(simulated time, probe)` after each `schedule` call.
pub(crate) type Calls = Rc<RefCell<Vec<(f64, bool)>>>;

/// `inner`, recording `probe(&inner)` into `calls` after every call.
pub(crate) fn watched<P: SchedulerPolicy + 'static>(
    inner: P,
    probe: fn(&P) -> bool,
    calls: &Calls,
) -> Audited<P> {
    let calls = Rc::clone(calls);
    Audited::new(Box::new(inner), move |p, view, _| {
        calls.borrow_mut().push((view.now(), probe(p)))
    })
}

/// One entry a heartbeat, in order: its time and the probe after its last
/// call. A heartbeat is one instant and calls the policy at least once,
/// so heartbeat `h` (1-based) is entry `h - 1`.
pub(crate) fn per_heartbeat(calls: &Calls) -> Vec<(f64, bool)> {
    let mut out: Vec<(f64, bool)> = Vec::new();
    for &(t, probe) in calls.borrow().iter() {
        match out.last_mut() {
            Some(last) if last.0 == t => last.1 = probe,
            _ => out.push((t, probe)),
        }
    }
    out
}
