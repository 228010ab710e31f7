//! A policy wrapper that records what each `schedule` call saw, so a test
//! can find the heartbeat at which some private policy state stands and
//! crash a journaled run there.

use std::cell::RefCell;
use std::rc::Rc;

use tetris_sim::{Assignment, ClusterView, SchedulerPolicy, SimOutcome};

/// `(simulated time, probe)` after each `schedule` call.
pub(crate) type Calls = Rc<RefCell<Vec<(f64, bool)>>>;

/// `inner`, recording `probe(&inner)` after every `schedule` call.
pub(crate) struct Watched<P> {
    pub(crate) inner: P,
    pub(crate) probe: fn(&P) -> bool,
    pub(crate) calls: Calls,
}

impl<P: SchedulerPolicy> SchedulerPolicy for Watched<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn uses_tracker(&self) -> bool {
        self.inner.uses_tracker()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let out = self.inner.schedule(view);
        let seen = (view.now(), (self.probe)(&self.inner));
        self.calls.borrow_mut().push(seen);
        out
    }
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

/// The byte-identity oracle: an outcome's full wire form.
pub(crate) fn wire(o: &SimOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
}
