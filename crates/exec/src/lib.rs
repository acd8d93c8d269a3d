//! Execution primitives for the pipelined crawl orchestrator.
//!
//! This crate is deliberately tiny and dependency-free: it holds the one
//! concurrency building block the orchestrator in `sockscope-crawler`
//! uses, the adversary that stresses it, and the counting allocator the
//! bench harness and the bounded-memory regression tests share.
//!
//! * [`TicketRing`] — one counter that hands out tickets in ascending
//!   order and a ring of `cap` result slots. A worker may only start
//!   ticket `t` while `t < base + cap`; the reducer takes slot `base`,
//!   folds it and advances. That bounds the sites in flight and fixes
//!   the fold order, with no timeout, for any cap and worker count.
//! * [`ChaosSchedule`] — a pure-hash adversary that injects yields from a
//!   seed, used by the determinism stress tests.
//! * [`memmeter`] — the counting global allocator and per-stage meter.
//!
//! None of these primitives know anything about crawling; the determinism
//! argument lives in `DESIGN.md` §10 next to the orchestrator that wires
//! them together.

#![deny(unsafe_code)]

mod chaos;
pub mod memmeter;
mod ring;

pub use chaos::ChaosSchedule;
pub use ring::TicketRing;
