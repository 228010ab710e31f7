//! The discrete-event queue.
//!
//! An indexed binary min-heap on `(time, sequence)`; the sequence number
//! breaks ties deterministically in insertion order, which (together with
//! the absence of hash-ordered iteration anywhere in the engine) makes runs
//! bit-reproducible. A flow has at most one queued completion: a flow →
//! heap-slot table lets a re-timed `FlowDone` re-key its entry in place
//! and a torn-down flow remove it, so no popped event is ever stale.

use tetris_workload::{JobId, TaskUid};

use crate::time::SimTime;

/// Index of a flow in the engine's flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct FlowId(pub usize);

/// What happens at an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A job's arrival time has been reached.
    JobArrival(JobId),
    /// A flow predicts completion (the only one queued for that flow).
    FlowDone { flow: FlowId },
    /// A flowless (zero-work) task completes (validated against `gen`).
    TaskDone { task: TaskUid, gen: u64 },
    /// Periodic resource-tracker report.
    TrackerReport,
    /// A heartbeat the engine asks of itself, in a run without tracker
    /// reports, at the instant the next one would have come: the last
    /// heartbeat ran out of rounds with placements still coming.
    Wake,
    /// Periodic utilization sample.
    Sample,
    /// External load period begins (index into `SimConfig::external_loads`,
    /// or past its end into `SimState::dynamic_loads` for re-replication
    /// flows spawned at crash time).
    ExternalStart(usize),
    /// External load period ends.
    ExternalEnd(usize),
    /// Fault injection: a machine crashes (kills resident flows/tasks).
    MachineDown(crate::cluster::MachineId),
    /// Fault injection: a crashed machine recovers.
    MachineUp(crate::cluster::MachineId),
    /// Fault injection: an IO slowdown window begins on a machine.
    SlowdownStart(crate::cluster::MachineId),
    /// Fault injection: an IO slowdown window ends.
    SlowdownEnd(crate::cluster::MachineId),
    /// Fault injection: a machine's tracker goes stale ahead of a crash
    /// (failing machines flake before they die); cleared on recovery.
    TrackerFlake(crate::cluster::MachineId),
    /// A task attempt lost to a crash finishes its restart backoff and
    /// becomes schedulable again.
    TaskRestart(TaskUid),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// `heap_slot` entry of a flow with no queued completion.
const NO_SLOT: usize = usize::MAX;

/// Deterministic event queue.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Binary min-heap on `(time, seq)`.
    heap: Vec<Event>,
    /// Heap slot of each flow's queued completion, by flow id.
    heap_slot: Vec<usize>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time`. A `FlowDone` for a flow that already has
    /// one queued re-times that entry in place; it takes a fresh sequence
    /// number either way, so events pop in the order a queue that kept the
    /// superseded entry (and skipped it when popped) would give.
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Append, unless a flow's entry is there to overwrite (`NO_SLOT`
        // is past any slot).
        let mut i = self.heap.len();
        if let EventKind::FlowDone { flow } = kind {
            i = i.min(*self.slot_mut(flow));
        }
        match self.heap.get_mut(i) {
            Some(queued) => *queued = Event { time, seq, kind },
            None => self.heap.push(Event { time, seq, kind }),
        }
        self.sift(i);
    }

    /// Drop `flow`'s queued completion, if it has one (its attempt was
    /// torn down, or its rate fell to zero).
    pub(crate) fn cancel(&mut self, flow: FlowId) {
        if let Some(&i) = self.heap_slot.get(flow.0).filter(|&&i| i != NO_SLOT) {
            self.remove(i);
        }
    }

    /// Pop the earliest event.
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<Event> {
        (!self.heap.is_empty()).then(|| self.remove(0))
    }

    /// Pop the earliest event if it is due at `time` and was pushed before
    /// the counter read `fence`: one instant's batch, without buffering it.
    pub(crate) fn pop_due(&mut self, time: SimTime, fence: u64) -> Option<Event> {
        let head = self.heap.first()?;
        (head.time == time && head.seq < fence).then(|| self.remove(0))
    }

    /// Time of the earliest event without popping.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// The sequence number the next push will take.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of queued events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn slot_mut(&mut self, flow: FlowId) -> &mut usize {
        if self.heap_slot.len() <= flow.0 {
            self.heap_slot.resize(flow.0 + 1, NO_SLOT);
        }
        &mut self.heap_slot[flow.0]
    }

    /// Take the event in heap slot `i` out of the queue.
    fn remove(&mut self, i: usize) -> Event {
        let ev = self.heap.swap_remove(i);
        if let EventKind::FlowDone { flow } = ev.kind {
            self.heap_slot[flow.0] = NO_SLOT;
        }
        if i < self.heap.len() {
            self.sift(i);
        }
        ev
    }

    /// Record that heap slot `i` is where its event now sits.
    fn settle(&mut self, i: usize) {
        if let EventKind::FlowDone { flow } = self.heap[i].kind {
            self.heap_slot[flow.0] = i;
        }
    }

    /// Restore the heap order around slot `i`, whose key changed (one
    /// direction is ever needed: a riser leaves its old ancestors below).
    fn sift(&mut self, mut i: usize) {
        let key = |q: &Self, i: usize| (q.heap[i].time, q.heap[i].seq);
        loop {
            let (parent, mut child) = (i.saturating_sub(1) / 2, 2 * i + 1);
            if child + 1 < self.heap.len() && key(self, child + 1) < key(self, child) {
                child += 1;
            }
            let to = if key(self, i) < key(self, parent) {
                parent
            } else if child < self.heap.len() && key(self, child) < key(self, i) {
                child
            } else {
                break;
            };
            self.heap.swap(i, to);
            self.settle(i);
            i = to;
        }
        self.settle(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2.0), EventKind::TrackerReport);
        q.push(SimTime::from_secs(1.0), EventKind::Sample);
        q.push(SimTime::from_secs(3.0), EventKind::JobArrival(JobId(0)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Sample);
        assert_eq!(q.pop().unwrap().kind, EventKind::TrackerReport);
        assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival(JobId(0)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.push(t, EventKind::JobArrival(JobId(i)));
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().kind, EventKind::JobArrival(JobId(i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_secs(5.0), EventKind::Sample);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5.0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_takes_one_instant_and_stops_at_the_fence() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(t, EventKind::Sample);
        q.push(SimTime::from_secs(2.0), EventKind::TrackerReport);
        q.push(t, EventKind::FlowDone { flow: FlowId(0) });
        let fence = q.next_seq();
        assert_eq!(q.pop_due(t, fence).unwrap().kind, EventKind::Sample);
        // Pushed at this instant by a handler: waits for the next batch.
        q.push(t, EventKind::JobArrival(JobId(9)));
        let done = EventKind::FlowDone { flow: FlowId(0) };
        assert_eq!(q.pop_due(t, fence).unwrap().kind, done);
        assert!(q.pop_due(t, fence).is_none());
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.len(), 2);
    }

    /// The queue this one replaced, kept as the reference: a heap that
    /// keeps superseded completions and drops them, by a per-flow
    /// generation, when they surface.
    #[derive(Default)]
    struct LazyQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        /// `(kind, generation)` of each push, indexed by the heap's third field.
        pushed: Vec<(EventKind, u64)>,
        gen: Vec<u64>,
        /// Flows with a live completion queued, and queued non-flow events.
        live: usize,
        next_seq: u64,
    }

    impl LazyQueue {
        fn push(&mut self, time: SimTime, kind: EventKind) {
            let gen = match kind {
                EventKind::FlowDone { flow } => {
                    self.cancel(flow);
                    self.gen[flow.0]
                }
                _ => 0,
            };
            self.live += 1;
            self.heap
                .push(Reverse((time, self.next_seq, self.pushed.len())));
            self.pushed.push((kind, gen));
            self.next_seq += 1;
        }

        fn cancel(&mut self, flow: FlowId) {
            let queued = |(kind, gen): &(EventKind, u64)| {
                *kind == EventKind::FlowDone { flow } && *gen == self.gen[flow.0]
            };
            if self.heap.iter().any(|Reverse(e)| queued(&self.pushed[e.2])) {
                self.live -= 1;
            }
            self.gen[flow.0] += 1;
        }

        fn pop(&mut self) -> Option<Event> {
            while let Some(Reverse((time, seq, i))) = self.heap.pop() {
                let (kind, gen) = self.pushed[i].clone();
                match kind {
                    EventKind::FlowDone { flow } if gen != self.gen[flow.0] => continue,
                    EventKind::FlowDone { flow } => self.gen[flow.0] += 1,
                    _ => {}
                }
                self.live -= 1;
                return Some(Event { time, seq, kind });
            }
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random push / re-time / cancel / pop programs: the indexed queue
        /// pops exactly the reference's live events and holds nothing
        /// else.
        #[test]
        fn prop_queue(
            program in proptest::collection::vec((0usize..6, 0usize..8, 0u64..12), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut model = LazyQueue { gen: vec![0; 8], ..LazyQueue::default() };
            for (step, &(op, flow, micros)) in program.iter().enumerate() {
                let (time, flow) = (SimTime(micros), FlowId(flow));
                match op {
                    0 => {
                        q.push(time, EventKind::JobArrival(JobId(step)));
                        model.push(time, EventKind::JobArrival(JobId(step)));
                    }
                    1 | 2 => {
                        q.push(time, EventKind::FlowDone { flow });
                        model.push(time, EventKind::FlowDone { flow });
                    }
                    3 => {
                        q.cancel(flow);
                        model.cancel(flow);
                    }
                    _ => prop_assert_eq!(q.pop(), model.pop()),
                }
                prop_assert_eq!(q.len(), model.live);
            }
            while let Some(ev) = model.pop() {
                prop_assert_eq!(q.pop(), Some(ev));
            }
            prop_assert!(q.is_empty());
        }
    }
}
