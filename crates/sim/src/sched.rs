//! One baton over the client threads: which client runs next is a function
//! of the virtual clocks, not of the host's thread scheduler.
//!
//! [`run_clients`] gives every client an OS thread, but only the holder of
//! the one **baton** runs, and the holder is always the live client with
//! the lowest `(virtual clock, client index)`. A client gives the baton up
//! in two ways, both on its [`SimCtx`]:
//!
//! * [`yield_now`](SimCtx::yield_now) publishes its clock and lets every
//!   client behind it run first;
//! * [`park`](SimCtx::park) takes it off the board until a [`Waker`] made
//!   from its context is woken, or until its *virtual* deadline is the
//!   lowest time on the board — then it times out at that deadline.
//!
//! A context made by [`SimCtx::new`] (every single-client caller, every
//! [`fork`](SimCtx::fork) child) is the only client of its own one-client
//! world: its `yield_now` is a no-op and a deadline passes at once.
//!
//! **The rule callers must keep:** yield or park only where no host lock
//! and no page latch is held. A blocked host mutex is never released under
//! a baton, because its owner is waiting for the baton. Kept, it also means
//! host locks are never contended: whoever runs finds them all free.
//!
//! `park` may return `false` without the condition the caller waits for
//! being true (a stale `Waker` from an earlier wait, a wake-all): re-check
//! and park again, as with a condition variable.

use std::sync::Arc;
use std::thread::{self, Thread};

use parking_lot::{Mutex, MutexGuard};

use crate::time::{SimCtx, VTime};

enum State {
    Runnable,
    /// Off the board until woken, or until the deadline is the lowest time.
    Parked(Option<VTime>),
    Done,
}

struct Slot {
    /// The client's clock when it last gave the baton up.
    clock: VTime,
    state: State,
    /// Set when the baton came back because the deadline passed.
    timed_out: bool,
    /// The client's thread, once it has started.
    thread: Option<Thread>,
}

struct Board {
    slots: Vec<Slot>,
    holder: usize,
    /// Every live client is parked with no deadline: nobody can run again.
    stuck: bool,
}

impl Board {
    /// Pass the baton to the live client with the lowest `(time, index)`,
    /// where a parked client's time is its deadline.
    fn pass(&mut self) {
        let next = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.state {
                State::Runnable => Some((s.clock, i)),
                State::Parked(Some(deadline)) => Some((deadline.max(s.clock), i)),
                State::Parked(None) | State::Done => None,
            })
            .min();
        let Some((time, next)) = next else {
            self.stuck = self
                .slots
                .iter()
                .any(|s| matches!(s.state, State::Parked(_)));
            if self.stuck {
                self.slots
                    .iter()
                    .filter_map(|s| s.thread.as_ref())
                    .for_each(Thread::unpark);
            }
            return;
        };
        let slot = &mut self.slots[next];
        if matches!(slot.state, State::Parked(_)) {
            slot.clock = time;
            slot.timed_out = true;
            slot.state = State::Runnable;
        }
        // A holder that stays the holder is running: it made this call.
        if next != self.holder {
            self.holder = next;
            if let Some(t) = &slot.thread {
                t.unpark();
            }
        }
    }
}

/// One client's place on the board.
pub(crate) struct Seat {
    board: Arc<Mutex<Board>>,
    index: usize,
}

impl Seat {
    /// Block this thread until it holds the baton.
    fn wait_for_baton(&self) -> MutexGuard<'_, Board> {
        loop {
            let board = self.board.lock();
            if board.stuck {
                drop(board);
                panic!("deadlock: every live client is parked with no deadline");
            }
            if board.holder == self.index {
                return board;
            }
            drop(board);
            thread::park();
        }
    }

    /// Publish `now` and `state`, pass the baton, wait for it to come back.
    /// Returns the clock to resume at and whether a deadline passed.
    fn give_up(&self, now: VTime, state: State) -> (VTime, bool) {
        let mut board = self.board.lock();
        let slot = &mut board.slots[self.index];
        slot.clock = now;
        slot.state = state;
        slot.timed_out = false;
        board.pass();
        drop(board);
        let board = self.wait_for_baton();
        let slot = &board.slots[self.index];
        (slot.clock, slot.timed_out)
    }
}

/// Makes a parked client runnable again (at the clock it parked with; it
/// runs when the baton next reaches it). Waking a client that is not parked
/// does nothing.
#[derive(Clone)]
pub struct Waker(Option<Arc<Seat>>);

impl Waker {
    /// Wake the client this waker was made from.
    pub fn wake(&self) {
        let Some(seat) = &self.0 else { return };
        let mut board = seat.board.lock();
        let slot = &mut board.slots[seat.index];
        if matches!(slot.state, State::Parked(_)) {
            slot.state = State::Runnable;
        }
    }
}

impl SimCtx {
    /// Let every client whose `(clock, index)` is below this one's run
    /// first. A no-op for a lone context.
    pub fn yield_now(&mut self) {
        if let Some(seat) = &self.seat {
            seat.give_up(self.now(), State::Runnable);
        }
    }

    /// Give the baton up until a [`Waker`] of this context is woken or the
    /// virtual `deadline` is the lowest time on the board. Returns whether
    /// the deadline passed; the clock then stands at the deadline, and
    /// otherwise where it stood. A lone context's deadline passes at once.
    pub fn park(&mut self, deadline: Option<VTime>) -> bool {
        let (clock, timed_out) = match (&self.seat, deadline) {
            (Some(seat), _) => seat.give_up(self.now(), State::Parked(deadline)),
            (None, Some(deadline)) => (deadline, true),
            (None, None) => panic!("deadlock: a lone client parked with no deadline"),
        };
        self.wait_until(clock);
        timed_out
    }

    /// A waker for this context's next [`park`](Self::park).
    pub fn waker(&self) -> Waker {
        Waker(self.seat.clone())
    }
}

/// Run `n` clients under one baton. Client `i` gets
/// `SimCtx::new(i + 1, seed)` moved to `start` and runs `client(ctx, i)`;
/// the results come back in client order. A client that panics passes the
/// baton on, and its panic resurfaces here once the others are done.
pub fn run_clients<R, F>(n: usize, seed: u64, start: VTime, client: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut SimCtx, usize) -> R + Sync,
{
    let board = Arc::new(Mutex::new(Board {
        slots: (0..n)
            .map(|_| Slot {
                clock: start,
                state: State::Runnable,
                timed_out: false,
                thread: None,
            })
            .collect(),
        holder: 0,
        stuck: false,
    }));
    /// Leaves the board on every exit path, a panicking client included.
    struct Leave(Arc<Seat>);
    impl Drop for Leave {
        fn drop(&mut self) {
            let mut board = self.0.board.lock();
            board.slots[self.0.index].state = State::Done;
            if board.holder == self.0.index {
                board.pass();
            }
        }
    }
    thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|index| {
                let seat = Arc::new(Seat {
                    board: Arc::clone(&board),
                    index,
                });
                let client = &client;
                scope.spawn(move || {
                    let mut ctx = SimCtx::new(index as u64 + 1, seed);
                    ctx.wait_until(start);
                    ctx.seat = Some(Arc::clone(&seat));
                    let leave = Leave(seat);
                    leave.0.board.lock().slots[index].thread = Some(thread::current());
                    drop(leave.0.wait_for_baton());
                    client(&mut ctx, index)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Four clients with random think times: `(clock, index)` per turn.
    fn turns(seed: u64) -> Vec<(VTime, usize)> {
        let log = Mutex::new(Vec::new());
        run_clients(4, seed, VTime::from_micros(5), |ctx, i| {
            for _ in 0..50 {
                ctx.yield_now();
                log.lock().push((ctx.now(), i));
                let think: u64 = ctx.rng().gen_range(0..1_000);
                ctx.advance(VTime::from_nanos(think));
            }
        });
        log.into_inner()
    }

    #[test]
    fn turns_come_in_clock_then_index_order_and_repeat() {
        let first = turns(7);
        assert_eq!(first.len(), 200);
        assert_eq!(first[0], (VTime::from_micros(5), 0));
        assert!(first.windows(2).all(|w| w[0] <= w[1]), "{first:?}");
        assert_eq!(first, turns(7));
        assert_ne!(first, turns(8));
    }

    #[test]
    fn woken_park_keeps_its_clock_and_unwoken_park_times_out_at_the_deadline() {
        let wakers = Mutex::new(Vec::new());
        let out = run_clients(3, 1, VTime::ZERO, |ctx, i| match i {
            0 => {
                wakers.lock().push(ctx.waker());
                ctx.advance(VTime::from_micros(10));
                (ctx.park(Some(VTime::from_secs(1))), ctx.now())
            }
            1 => {
                ctx.advance(VTime::from_micros(20));
                (ctx.park(Some(VTime::from_millis(3))), ctx.now())
            }
            _ => {
                // Still the lowest time on the board: both deadlines are later.
                ctx.advance(VTime::from_millis(1));
                ctx.yield_now();
                wakers.lock().drain(..).for_each(|w| w.wake());
                ctx.advance(VTime::from_millis(10));
                (false, ctx.now())
            }
        });
        assert_eq!(out[0], (false, VTime::from_micros(10)));
        assert_eq!(out[1], (true, VTime::from_millis(3)));
        assert_eq!(out[2], (false, VTime::from_millis(11)));
    }

    #[test]
    fn lone_context_never_waits() {
        let mut ctx = SimCtx::new(1, 1);
        ctx.advance(VTime::from_micros(5));
        ctx.yield_now();
        assert_eq!(ctx.now(), VTime::from_micros(5));
        assert!(ctx.park(Some(VTime::from_micros(9))));
        assert_eq!(ctx.now(), VTime::from_micros(9));
        // A deadline already behind the clock does not move it back.
        assert!(ctx.park(Some(VTime::from_micros(1))));
        assert_eq!(ctx.now(), VTime::from_micros(9));
        ctx.waker().wake();
        // A fork child of a scheduled client is lone too.
        let lone = run_clients(2, 1, VTime::ZERO, |ctx, _| ctx.fork().park(Some(VTime(7))));
        assert_eq!(lone, [true, true]);
    }

    #[test]
    fn panicking_holder_passes_the_baton_on() {
        let finished = AtomicUsize::new(0);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_clients(3, 1, VTime::ZERO, |ctx, i| {
                ctx.advance(VTime::from_micros(1 + i as u64));
                ctx.yield_now();
                assert!(i != 0, "injected client fault");
                ctx.advance(VTime::from_micros(5));
                ctx.yield_now();
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(run.is_err(), "the injected panic must propagate");
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn parking_everyone_with_no_deadline_panics_instead_of_hanging() {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_clients(2, 1, VTime::ZERO, |ctx, _| ctx.park(None))
        }));
        assert!(run.is_err());
    }
}
