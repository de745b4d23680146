//! Streams and events with virtual timelines.
//!
//! Deep learning frameworks overlap computation and communication by
//! scheduling kernels on separate streams and ordering them with
//! `cudaEventRecord` / `cudaStreamWaitEvent` (Figure 3 of the paper). The
//! hang-detection watch-list is built exactly from those two calls, so the
//! simulated device reproduces their semantics:
//!
//! * each stream carries a `ready_at` virtual time — when its last
//!   enqueued operation completes;
//! * recording an event stamps it with the stream's `ready_at`;
//! * `stream_wait_event` raises the waiting stream's timeline to the
//!   event's stamp (device-side ordering without blocking the CPU).

use serde::{Deserialize, Serialize};
use simcore::codec::{Decode, Encode};
use simcore::{SimResult, SimTime};
use std::fmt;

/// Handle to a device stream (virtualized by the proxy layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Handle to a device event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event{}", self.0)
    }
}

impl Encode for StreamId {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.encode(buf);
    }
}

impl Decode for StreamId {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        Ok(StreamId(u64::decode(buf)?))
    }
}

impl Encode for EventId {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.encode(buf);
    }
}

impl Decode for EventId {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        Ok(EventId(u64::decode(buf)?))
    }
}

/// A device stream: an ordered virtual timeline of enqueued work.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Handle.
    pub id: StreamId,
    /// Virtual completion time of the last enqueued operation.
    pub ready_at: SimTime,
    /// Number of operations enqueued so far (diagnostics / tests).
    pub ops_enqueued: u64,
}

impl Stream {
    /// Creates an idle stream.
    pub fn new(id: StreamId) -> Self {
        Stream {
            id,
            ready_at: SimTime::ZERO,
            ops_enqueued: 0,
        }
    }

    /// Enqueues work of duration `cost` starting no earlier than `now`,
    /// returning the operation's completion time.
    pub fn enqueue(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        self.ready_at = self.ready_at.max(now) + cost;
        self.ops_enqueued += 1;
        self.ready_at
    }

    /// Makes this stream wait for `event_time` (the `cudaStreamWaitEvent`
    /// semantic): its timeline cannot progress past work ordered before
    /// the event completes.
    pub(crate) fn wait_event(&mut self, event_time: SimTime) {
        self.ready_at = self.ready_at.max(event_time);
    }
}

/// A device event: unrecorded, or stamped with a completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Handle.
    pub id: EventId,
    /// Completion time of the work preceding the record, if recorded.
    pub recorded_at: Option<SimTime>,
}

impl Event {
    /// Creates an unrecorded event.
    pub fn new(id: EventId) -> Self {
        Event {
            id,
            recorded_at: None,
        }
    }

    /// True once recorded (the simulated device completes enqueued work
    /// eagerly, so a recorded event has always "fired"; hangs are modelled
    /// at the collective layer where they actually happen).
    pub(crate) fn is_complete(&self) -> bool {
        self.recorded_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_serializes_work_on_a_stream() {
        let mut s = Stream::new(StreamId(0));
        let t1 = s.enqueue(SimTime::ZERO, SimTime::from_millis(10.0));
        let t2 = s.enqueue(SimTime::ZERO, SimTime::from_millis(5.0));
        assert!((t1.as_millis() - 10.0).abs() < 1e-9);
        assert!((t2.as_millis() - 15.0).abs() < 1e-9);
        assert_eq!(s.ops_enqueued, 2);
    }

    #[test]
    fn enqueue_cannot_start_before_now() {
        let mut s = Stream::new(StreamId(0));
        let t = s.enqueue(SimTime::from_secs(2.0), SimTime::from_secs(1.0));
        assert!((t.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wait_event_raises_timeline() {
        let mut compute = Stream::new(StreamId(0));
        let mut comm = Stream::new(StreamId(1));
        // Figure 3 pattern: all-reduce on comm stream, optimizer on compute
        // stream must wait for it.
        comm.enqueue(SimTime::ZERO, SimTime::from_millis(50.0));
        let mut ev = Event::new(EventId(0));
        ev.recorded_at = Some(comm.ready_at);
        compute.enqueue(SimTime::ZERO, SimTime::from_millis(10.0));
        compute.wait_event(ev.recorded_at.unwrap());
        let opt_done = compute.enqueue(SimTime::ZERO, SimTime::from_millis(5.0));
        assert!((opt_done.as_millis() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn unrecorded_event_is_incomplete() {
        let ev = Event::new(EventId(3));
        assert!(!ev.is_complete());
    }
}
