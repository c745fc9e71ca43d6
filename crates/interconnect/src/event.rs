//! Typed completion events for the memory path.
//!
//! The memory system is discrete-event: the arbiter, the memory
//! controllers, the snoop-response combiner, the data ports, and the
//! MSHR fill paths all schedule a [`MemEvent`] on the machine's central
//! [`cgct_sim::EventQueue`] at the cycle their work completes.
//!
//! Events are pure *completion notifications*: every architectural
//! state transition is applied synchronously inside the atomic-bus
//! coherence engine when the request is processed, so delivering an
//! event mutates nothing. The machine's clock follows the core wakeups
//! alone (see `Machine::run_until` in `cgct-system`); each time it
//! stops, the queue retires every event due by then and counts it for
//! the `mem_events` figure and the `memory_events_per_sec` throughput
//! diagnostic in `BENCH_cgct.json`.

/// One memory-path completion, scheduled at the cycle it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEvent {
    /// The broadcast address network granted a request its bus slot.
    BusGranted,
    /// All snoop responses for a broadcast have been combined.
    SnoopComplete,
    /// A DRAM bank finished its access and is free again.
    DramComplete,
    /// A point-to-point data-port transfer finished.
    DataPortFree,
    /// A demand miss response arrived and fills the requesting MSHR
    /// (load, store, or dcbz path).
    MshrFill,
    /// An instruction-fetch miss response arrived (fetch resumes).
    FetchFill,
}

impl MemEvent {
    /// Stable short label (diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            MemEvent::BusGranted => "bus-grant",
            MemEvent::SnoopComplete => "snoop-complete",
            MemEvent::DramComplete => "dram-complete",
            MemEvent::DataPortFree => "data-port-free",
            MemEvent::MshrFill => "mshr-fill",
            MemEvent::FetchFill => "fetch-fill",
        }
    }
}

impl cgct_sim::Snap for MemEvent {
    fn snap(&self) -> cgct_sim::Json {
        cgct_sim::Json::str(self.label())
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        let name = v.as_str().ok_or("expected memory-event label")?;
        [
            MemEvent::BusGranted,
            MemEvent::SnoopComplete,
            MemEvent::DramComplete,
            MemEvent::DataPortFree,
            MemEvent::MshrFill,
            MemEvent::FetchFill,
        ]
        .into_iter()
        .find(|e| e.label() == name)
        .ok_or_else(|| format!("unknown memory event {name:?}"))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // D002 mirror: test code is exempt by policy
mod tests {
    use super::*;
    use cgct_sim::{Cycle, EventQueue};

    #[test]
    fn events_queue_in_time_order() {
        let mut q: EventQueue<MemEvent> = EventQueue::new();
        q.schedule(Cycle(30), MemEvent::DramComplete);
        q.schedule(Cycle(10), MemEvent::BusGranted);
        q.schedule(Cycle(20), MemEvent::SnoopComplete);
        let order: Vec<MemEvent> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                MemEvent::BusGranted,
                MemEvent::SnoopComplete,
                MemEvent::DramComplete
            ]
        );
    }

    #[test]
    fn labels_are_distinct() {
        let all = [
            MemEvent::BusGranted,
            MemEvent::SnoopComplete,
            MemEvent::DramComplete,
            MemEvent::DataPortFree,
            MemEvent::MshrFill,
            MemEvent::FetchFill,
        ];
        let labels: std::collections::HashSet<_> = all.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
