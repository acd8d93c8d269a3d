//! Ordered tickets and a ring of result slots: the orchestrator's one
//! handoff between its crawl workers and its single reducer.
//!
//! Workers take tickets from one counter, so tickets come out in
//! ascending order. Ticket `t` may only *start* while
//! `t < base + cap`, where `base` is the next ticket the reducer folds;
//! its result lands in slot `t % cap`, and the reducer takes slot `base`,
//! folds it, and advances. At most `cap` tickets are ever past admission
//! but not yet folded, so the slots never collide and memory is bounded
//! by `cap`, not by the number of tickets.
//!
//! Liveness needs no timeout: the smallest unfolded ticket has always
//! been claimed (tickets go out in order) and always lies inside the
//! window, so its worker is either working on it or has handed it in.
//! That holds for any `cap >= 1` and any number of workers. This is
//! self-scheduling from a shared counter (Polychronopoulos & Kuck,
//! "Guided Self-Scheduling", IEEE TC 1987), with the slot ring keeping the
//! fold order cheap.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

struct State<T> {
    slots: Vec<Option<T>>,
    base: usize,
    closed: bool,
}

/// A ticket counter plus `cap` result slots, folded in ticket order.
pub struct TicketRing<T> {
    cap: usize,
    next: AtomicUsize,
    state: Mutex<State<T>>,
    /// The reducer waits here for slot `base` to fill.
    filled: Condvar,
    /// Workers wait here for `base` to advance far enough to admit them.
    advanced: Condvar,
}

impl<T> TicketRing<T> {
    /// Creates a ring admitting at most `cap` unfolded tickets (`cap` is
    /// clamped to 1, which degrades to strict serial order).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TicketRing {
            cap,
            next: AtomicUsize::new(0),
            state: Mutex::new(State {
                slots: (0..cap).map(|_| None).collect(),
                base: 0,
                closed: false,
            }),
            filled: Condvar::new(),
            advanced: Condvar::new(),
        }
    }

    /// Takes the next ticket: `0, 1, 2, …` across all callers.
    pub fn claim(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Parks until ticket `t` falls inside the window `[base, base + cap)`.
    /// Returns false once the ring is closed: the caller must stop.
    pub fn admit(&self, t: usize) -> bool {
        let mut state = self.state.lock().unwrap();
        while !state.closed && t >= state.base + self.cap {
            state = self.advanced.wait(state).unwrap();
        }
        !state.closed
    }

    /// Stores the result of admitted ticket `t`.
    pub fn hand_in(&self, t: usize, result: T) {
        let mut state = self.state.lock().unwrap();
        let slot = &mut state.slots[t % self.cap];
        debug_assert!(slot.is_none(), "ticket {t} handed in over an unfolded one");
        *slot = Some(result);
        let wake = t == state.base;
        drop(state);
        if wake {
            self.filled.notify_one();
        }
    }

    /// Waits for the result of ticket `base` and takes it. Returns `None`
    /// once the ring is closed. Call [`advance`](Self::advance) after
    /// folding it.
    pub fn take(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.closed {
                return None;
            }
            let at = state.base % self.cap;
            if let Some(result) = state.slots[at].take() {
                return Some(result);
            }
            state = self.filled.wait(state).unwrap();
        }
    }

    /// Moves the window past the ticket just taken and wakes parked
    /// workers.
    pub fn advance(&self) {
        self.state.lock().unwrap().base += 1;
        self.advanced.notify_all();
    }

    /// Closes the ring: every parked and future `admit` returns false and
    /// every `take` returns `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.filled.notify_all();
        self.advanced.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn results_handed_in_out_of_order_are_taken_in_ticket_order() {
        let ring = TicketRing::new(4);
        let tickets: Vec<usize> = (0..4).map(|_| ring.claim()).collect();
        assert_eq!(tickets, [0, 1, 2, 3]);
        for t in [2, 0, 3, 1] {
            assert!(ring.admit(t));
            ring.hand_in(t, t * 10);
        }
        for want in [0, 10, 20, 30] {
            assert_eq!(ring.take(), Some(want));
            ring.advance();
        }
    }

    #[test]
    fn admit_past_the_window_parks_until_advance() {
        let ring = TicketRing::new(2);
        let admitted = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(ring.admit(2));
                admitted.store(true, Ordering::SeqCst);
            });
            assert!(ring.admit(0));
            ring.hand_in(0, 'a');
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !admitted.load(Ordering::SeqCst),
                "ticket 2 is a full window ahead"
            );
            assert_eq!(ring.take(), Some('a'));
            ring.advance();
        });
        assert!(admitted.load(Ordering::SeqCst));
    }

    #[test]
    fn close_wakes_a_parked_admit_and_a_parked_take() {
        let ring: TicketRing<u8> = TicketRing::new(1);
        std::thread::scope(|s| {
            let admit = s.spawn(|| ring.admit(5));
            let take = s.spawn(|| ring.take());
            std::thread::sleep(Duration::from_millis(20));
            ring.close();
            assert!(!admit.join().unwrap());
            assert_eq!(take.join().unwrap(), None);
        });
        assert!(!ring.admit(0), "a closed ring admits nothing");
    }

    /// The orchestrator's tightest case: eight workers, a window of one,
    /// and the reducer on the calling thread. Every worker but the holder
    /// of the smallest unfolded ticket parks on the window, and the drain
    /// must still fold every ticket in order.
    #[test]
    fn cap_one_drain_over_eight_threads_folds_in_ticket_order() {
        const TICKETS: usize = 64;
        let ring = TicketRing::new(1);
        let folded = std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| loop {
                    let t = ring.claim();
                    if t >= TICKETS || !ring.admit(t) {
                        return;
                    }
                    ring.hand_in(t, t);
                });
            }
            let folded: Vec<usize> = (0..TICKETS)
                .map(|_| {
                    let t = ring.take().expect("the ring stays open");
                    ring.advance();
                    t
                })
                .collect();
            ring.close();
            folded
        });
        assert_eq!(folded, (0..TICKETS).collect::<Vec<_>>());
    }
}
