//! Virtual time.
//!
//! Every rank in a simulated job owns a logical clock measured in seconds
//! of simulated wall-clock time. Device APIs, collectives, storage writes,
//! and recovery steps advance these clocks through the
//! [`crate::cost::CostModel`]; the evaluation tables are read off the
//! clocks, which makes every timing result deterministic and independent of
//! host load.
//!
//! Clocks live on a shared [`ClockBoard`] so that a collective can realize
//! barrier semantics in time: on completion, all participants' clocks are
//! advanced to `max(arrival times) + collective cost`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point (or span) of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(pub f64);

impl SimTime {
    /// The zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value from seconds.
    pub fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Creates a time value from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimTime(ms / 1e3)
    }

    /// Creates a time value from microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimTime(us / 1e6)
    }

    /// Returns the value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1}us", self.0 * 1e6)
        }
    }
}

/// A shared board of per-rank virtual clocks.
///
/// Clocks are stored as `f64` bit patterns in atomics so that concurrent
/// rank threads can read/advance them without holding a lock across
/// blocking operations. All updates are monotone (time never goes
/// backwards), enforced by compare-and-swap loops.
#[derive(Debug)]
pub struct ClockBoard {
    clocks: Vec<AtomicU64>,
}

impl ClockBoard {
    /// Creates a board with `n` clocks, all at time zero.
    pub fn new(n: usize) -> Self {
        ClockBoard {
            clocks: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    /// Number of clocks on the board.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Returns true if the board has no clocks.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Reads rank `i`'s current time.
    pub fn now(&self, i: usize) -> SimTime {
        SimTime(f64::from_bits(self.clocks[i].load(Ordering::Acquire)))
    }

    /// Advances rank `i`'s clock by `dt`, returning the new time.
    pub fn advance(&self, i: usize, dt: SimTime) -> SimTime {
        loop {
            let cur = self.clocks[i].load(Ordering::Acquire);
            let new = (f64::from_bits(cur) + dt.0).to_bits();
            if self.clocks[i]
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return SimTime(f64::from_bits(new));
            }
        }
    }

    /// Raises rank `i`'s clock to at least `t` (monotone), returning the
    /// resulting time.
    pub fn raise_to(&self, i: usize, t: SimTime) -> SimTime {
        loop {
            let cur = self.clocks[i].load(Ordering::Acquire);
            let curf = f64::from_bits(cur);
            if curf >= t.0 {
                return SimTime(curf);
            }
            if self.clocks[i]
                .compare_exchange(cur, t.0.to_bits(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return t;
            }
        }
    }

    /// Returns the maximum clock across a set of ranks.
    pub(crate) fn max_of(&self, ranks: &[usize]) -> SimTime {
        ranks
            .iter()
            .map(|&i| self.now(i))
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Synchronizes a group at a barrier: raises every listed clock to
    /// `max(current) + cost` and returns that time. This is how collective
    /// completion is accounted.
    pub fn barrier_sync(&self, ranks: &[usize], cost: SimTime) -> SimTime {
        let t = self.max_of(ranks) + cost;
        for &i in ranks {
            self.raise_to(i, t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let b = ClockBoard::new(2);
        b.advance(0, SimTime::from_secs(1.5));
        b.advance(0, SimTime::from_secs(0.5));
        assert!((b.now(0).as_secs() - 2.0).abs() < 1e-12);
        assert_eq!(b.now(1), SimTime::ZERO);
    }

    #[test]
    fn raise_to_is_monotone() {
        let b = ClockBoard::new(1);
        b.raise_to(0, SimTime::from_secs(5.0));
        b.raise_to(0, SimTime::from_secs(3.0));
        assert!((b.now(0).as_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_sync_equalizes_to_max_plus_cost() {
        let b = ClockBoard::new(3);
        b.raise_to(0, SimTime::from_secs(1.0));
        b.raise_to(1, SimTime::from_secs(4.0));
        b.raise_to(2, SimTime::from_secs(2.0));
        let t = b.barrier_sync(&[0, 1, 2], SimTime::from_secs(0.5));
        assert!((t.as_secs() - 4.5).abs() < 1e-12);
        for i in 0..3 {
            assert!((b.now(i).as_secs() - 4.5).abs() < 1e-12);
        }
    }

    #[test]
    fn concurrent_advances_do_not_lose_updates() {
        use std::sync::Arc;
        let b = Arc::new(ClockBoard::new(1));
        let mut handles = vec![];
        for _ in 0..8 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    b.advance(0, SimTime::from_millis(1.0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!((b.now(0).as_secs() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_secs(2.5).to_string(), "2.500s");
        assert_eq!(SimTime::from_millis(12.0).to_string(), "12.000ms");
        assert_eq!(SimTime::from_micros(7.0).to_string(), "7.0us");
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert!((b.saturating_sub(a).as_secs() - 2.0).abs() < 1e-12);
    }
}
