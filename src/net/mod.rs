//! `vq_llm::net` — the network serving front end.
//!
//! Everything below the engine is synchronous and deterministic; this
//! module is the seam that turns it into a multi-tenant service without
//! giving that determinism up:
//!
//! ```text
//!  TCP clients ──lines──> [server]  per-conn reader/writer threads
//!                            │ submit/poll/cancel/stats
//!                            v
//!                        [driver]   one thread owns the Engine
//!                            │        ├─ admission: weighted fair queue
//!                            │        │   + SLO deadline admission
//!                            │        ├─ metrics: step latency, queue
//!                            │        │   depth, rejections, tenants
//!                            │        └─ streaming: per-step partial-
//!                            │            output diffs -> token events
//!                            v
//!                         Engine::submit / step / poll / take_output
//! ```
//!
//! * [`driver`] — the engine-owning thread and its thread-safe
//!   [`Client`] handle: tickets, blocking/deadline waits, streaming
//!   sinks.
//! * [`admission`] — the front-end policy: per-tenant weighted fair
//!   queueing (stride scheduling, priority classes) and deadline/SLO
//!   admission with computed `retry_after_ms`.
//! * [`metrics`] — lock-cheap histograms and counters
//!   (p50/p99 step latency, queue depth, per-reason rejections,
//!   per-tenant tokens/s), JSON-snapshotable.
//! * [`proto`] — the newline-delimited JSON frame vocabulary
//!   (`submit`/`poll`/`cancel`/`stats` in; `accepted`/`token`/`done`/
//!   `rejected`/`status`/`stats`/`error` out).
//! * [`server`] — the `std::net::TcpListener` front end tying it
//!   together.
//! * [`json`] — the hand-rolled JSON layer with bitwise-exact `f32`
//!   round-trips.
//!
//! The decode bytes a remote client receives are **bitwise identical**
//! to a solo in-process drain of the same request on a one-context
//! [`Engine`](crate::Engine) —
//! `tests/net_serving.rs` pins that end to end through a real socket.

pub mod admission;
pub mod driver;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod server;

pub use admission::{
    Admission, AdmissionConfig, AdmitReject, NetRequest, Pending, RateLimitConfig, RateLimiter,
};
pub use driver::{
    spawn as spawn_driver, spawn_supervised, Client, DrainReport, DriverHandle, DriverStats,
    EngineFactory, HandleTable, StreamEvent, StreamSink, SupervisorConfig, Ticket, TicketEnd,
    WaitError,
};
pub use metrics::{
    percentile, DisconnectReason, Histogram, Metrics, MetricsSnapshot, RejectKind, TenantRate,
};
pub use proto::{ClientFrame, PROTO_VERSION};
pub use server::{loopback, loopback_supervised, loopback_with, NetConfig, NetServer};

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// Every mutex in this module guards state that is updated in
/// self-consistent single steps (whole-entry map inserts, queue
/// push/pop, flag flips) with no panicking code inside the critical
/// section, so a poisoned guard cannot expose torn invariants — but a
/// panicking *sibling* thread (e.g. a contained kernel panic unwinding
/// through a scope) must not take the serving path down with it, which
/// is exactly what `.lock().unwrap()` would do.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
