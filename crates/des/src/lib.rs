//! # hq-des — deterministic discrete-event simulation toolkit
//!
//! This crate is the foundation substrate for the Hyper-Q reproduction:
//! a small, allocation-conscious discrete-event simulation (DES) toolkit
//! with
//!
//! * [`SimTime`] / [`Dur`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a deterministic future-event list with stable
//!   FIFO tie-breaking and O(log n) cancellation,
//! * [`DetRng`] — a seedable, forkable random-number generator so every
//!   simulation run is exactly reproducible,
//! * [`stats`] — online statistics, histograms and percentile summaries,
//! * [`trace`] — span traces with an ASCII Gantt renderer (used to
//!   regenerate the paper's Visual-Profiler-style timeline figures),
//! * [`json`] — the workspace's one JSON value, writer and parser, and
//! * [`record`] — time-weighted series recorders (utilization, power).
//!
//! The toolkit deliberately has no opinion about *what* is being
//! simulated; the GPU device model lives in the `hq-gpu` crate and
//! drives an [`EventQueue`] directly.
//!
//! ## Determinism
//!
//! Two properties guarantee bit-identical runs for a fixed seed:
//!
//! 1. Events scheduled for the same timestamp pop in scheduling order
//!    (a monotone sequence number breaks ties).
//! 2. All randomness flows through [`DetRng`], a ChaCha-based generator
//!    whose output is stable across platforms and compiler versions.

#![warn(missing_docs)]

pub mod engine;
pub mod intern;
pub mod json;
pub mod observe;
pub mod record;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{EventId, EventQueue, QueueStats};
pub use intern::{Interner, Symbol};
pub use rng::DetRng;
pub use time::{Dur, SimTime};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{EventId, EventQueue, QueueStats};
    pub use crate::intern::{Interner, Symbol};
    pub use crate::observe::TransitionRing;
    pub use crate::record::{TimeSeries, Utilization};
    pub use crate::rng::DetRng;
    pub use crate::stats::{Histogram, OnlineStats};
    pub use crate::time::{Dur, SimTime};
    pub use crate::trace::{Span, SpanKind, TraceLog};
}
