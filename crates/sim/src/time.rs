//! Virtual timestamps and per-client clocks.
//!
//! A [`VTime`] is a number of *virtual nanoseconds* since the start of a
//! simulation. Each simulated client (a TPC-C terminal, an AP query stream, a
//! micro-benchmark thread) owns a [`SimCtx`] whose clock advances as the
//! client performs work: CPU work charges time on a CPU [`Resource`],
//! device/network operations charge their modelled service times, and lock
//! waits jump the clock to the releaser's time.
//!
//! [`Resource`]: crate::resource::Resource

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use std::sync::Arc;

use crate::rng::SimRng;
use crate::sched::Seat;

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `VTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic is identical and the simulation never mixes virtual time with
/// wall-clock time, so a separate duration type would add noise without
/// preventing any real bug class here.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

impl VTime {
    /// Zero — the start of every simulation.
    pub const ZERO: VTime = VTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        VTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        VTime(s * 1_000_000_000)
    }

    /// Value in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; a simulation never produces negative spans, but
    /// racing clock reads in multi-threaded drivers can observe small
    /// inversions which must not panic.
    #[inline]
    pub fn saturating_sub(self, other: VTime) -> VTime {
        VTime(self.0.saturating_sub(other.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VTime) -> VTime {
        VTime(self.0 + rhs.0)
    }
}

impl AddAssign for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VTime {
    type Output = VTime;
    #[inline]
    fn sub(self, rhs: VTime) -> VTime {
        VTime(self.0 - rhs.0)
    }
}

impl Mul<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn mul(self, rhs: u64) -> VTime {
        VTime(self.0 * rhs)
    }
}

impl Div<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn div(self, rhs: u64) -> VTime {
        VTime(self.0 / rhs)
    }
}

impl Sum for VTime {
    fn sum<I: Iterator<Item = VTime>>(iter: I) -> VTime {
        VTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// Per-client simulation context: a virtual clock plus a deterministic RNG.
///
/// Every operation on the simulated storage stack takes `&mut SimCtx` and
/// advances the clock by the operation's (possibly queued) completion time.
/// Clients are cheap to create; benchmarks typically create one per simulated
/// connection, each seeded differently but deterministically.
pub struct SimCtx {
    now: VTime,
    rng: SimRng,
    /// Identifier of the simulated client; used for lease ownership, LRU
    /// shard selection in drivers, and debugging.
    pub client_id: u64,
    /// Trace lane this context's spans record under. Equal to `client_id`
    /// for a driver-created context; a [`fork`](Self::fork)ed child gets a
    /// fresh deterministic lane so spans opened on parallel work (replica
    /// fan-out, async REDO shipping) never interleave with — and never
    /// falsely parent under — the forking client's open span stack.
    trace_client: u64,
    /// This client's place under a [`run_clients`](crate::sched::run_clients)
    /// baton; `None` for a lone context (see [`sched`](crate::sched)).
    pub(crate) seat: Option<Arc<Seat>>,
}

impl SimCtx {
    /// Create a context for `client_id`, deterministically seeded from
    /// `seed ^ client_id`.
    pub fn new(client_id: u64, seed: u64) -> Self {
        SimCtx {
            now: VTime::ZERO,
            rng: SimRng::new(seed ^ client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            client_id,
            trace_client: client_id,
            seat: None,
        }
    }

    /// Current virtual time of this client.
    #[inline]
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Advance the clock by `d`.
    #[inline]
    pub fn advance(&mut self, d: VTime) {
        self.now += d;
    }

    /// Move the clock forward to `t` if `t` is later (never moves backwards).
    #[inline]
    pub fn wait_until(&mut self, t: VTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Mutable access to the deterministic RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The trace lane spans opened on this context record under (see the
    /// field docs; forked contexts get their own lane).
    #[inline]
    pub fn trace_client(&self) -> u64 {
        self.trace_client
    }

    /// Fork a child context that starts at this context's current time, for
    /// operations issued *in parallel* (replica fan-out, BlobGroup chunk
    /// striping, push-down task scatter). The child gets a fresh RNG stream
    /// derived from the parent. Re-join with
    /// [`wait_until`](Self::wait_until)`(child.now())` — typically the max
    /// over all children. The child is a lone context: it runs inside its
    /// parent's turn and never yields.
    pub fn fork(&mut self) -> SimCtx {
        let seed = self.rng.next_u64();
        SimCtx {
            now: self.now,
            rng: SimRng::new(seed),
            client_id: self.client_id,
            // Deterministic private trace lane (derived from the RNG draw
            // that already individualizes the child); the high bit keeps it
            // clear of the small integers real client ids use.
            trace_client: seed | (1 << 63),
            seat: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(VTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(VTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(VTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((VTime::from_micros(1500).as_millis_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = VTime::from_micros(10);
        let b = VTime::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 2).as_nanos(), 5_000);
        assert_eq!(b.saturating_sub(a), VTime::ZERO);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", VTime::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", VTime::from_micros(5)), "5.00us");
        assert_eq!(format!("{}", VTime::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", VTime::from_secs(5)), "5.000s");
    }

    #[test]
    fn ctx_clock() {
        let mut ctx = SimCtx::new(7, 42);
        assert_eq!(ctx.now(), VTime::ZERO);
        ctx.advance(VTime::from_micros(5));
        ctx.wait_until(VTime::from_micros(3)); // no-op, earlier
        assert_eq!(ctx.now(), VTime::from_micros(5));
        ctx.wait_until(VTime::from_micros(9));
        assert_eq!(ctx.now(), VTime::from_micros(9));
    }

    #[test]
    fn ctx_rng_is_deterministic_per_client() {
        let mut a1 = SimCtx::new(1, 99);
        let mut a2 = SimCtx::new(1, 99);
        let mut b = SimCtx::new(2, 99);
        let x1: u64 = a1.rng().next_u64();
        let x2: u64 = a2.rng().next_u64();
        let y: u64 = b.rng().next_u64();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn fork_gets_private_deterministic_trace_lane() {
        let mut a1 = SimCtx::new(3, 11);
        let mut a2 = SimCtx::new(3, 11);
        assert_eq!(a1.trace_client(), 3);
        let f1 = a1.fork();
        let f2 = a2.fork();
        // Same seed, same fork order => same lane; never the parent's lane.
        assert_eq!(f1.trace_client(), f2.trace_client());
        assert_ne!(f1.trace_client(), a1.trace_client());
        // Successive forks get distinct lanes.
        let g1 = a1.fork();
        assert_ne!(f1.trace_client(), g1.trace_client());
    }

    #[test]
    fn vtime_sum() {
        let total: VTime = (1..=3).map(VTime::from_micros).sum();
        assert_eq!(total, VTime::from_micros(6));
    }
}
