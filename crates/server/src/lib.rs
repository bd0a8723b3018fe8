//! # exes-server
//!
//! The networked serving front-end for ExES: a hand-rolled HTTP/1.1 server
//! over `std::net` (the build is fully offline — no tokio, no hyper) that
//! puts a real front door on [`exes_core::ExesService`] and — crucially —
//! *exploits* the batching, dedup and probe-cache machinery underneath
//! instead of bypassing it with one-request-at-a-time calls.
//!
//! ## Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /explain` | A batch of explanation requests (all six kinds), answered position-stably |
//! | `POST /commit` | An [`exes_graph::UpdateBatch`] — publishes a new graph epoch |
//! | `GET /metrics` | Cumulative serving counters, queue/cache gauges, last batch report |
//! | `GET /healthz` | Liveness, current epoch, registered model count |
//!
//! ## One connection skeleton
//!
//! [`serve`] owns everything between the socket and an endpoint: a blocking
//! acceptor feeding a bounded pending-connection queue, the connection
//! workers with their keep-alive loop, the route table and its error bytes
//! (400, 404, 405, 413), the `"http"` counters and the connection drain at
//! shutdown.
//! This crate's [`server`] and the `exes-router` front both run it, each
//! supplying its four endpoint bodies through [`serve::Endpoints`].
//!
//! ## The micro-batching scheduler
//!
//! Connections never run a search themselves. Parsed requests enter one of
//! two **bounded admission queues** ([`queue::AdmissionQueue`]): a fast lane
//! for cache-warm work and a slow lane for cold. Each lane's batcher thread
//! takes whatever is queued when it wakes, up to `max_batch` requests, into
//! a single [`exes_core::ExesService::explain`] call, and never waits for
//! more: a lone request is answered at once, with every core free for its
//! probes. Requests that arrive while a batch computes queue up for the
//! next one, and that is what makes concurrent duplicate-heavy traffic
//! cheap: requests from *different* connections land in one engine batch,
//! where cross-user dedup answers repeats by cloning and the shared probe
//! cache replays warm epochs with zero black-box probes. When the queue is
//! full the server **sheds load** (HTTP 503 + `Retry-After: 1`) instead of
//! buffering without bound.
//!
//! ## Robustness guarantees
//!
//! * malformed wire input (truncated HTTP, garbage JSON, wrong field types)
//!   never kills a worker: every parse failure maps to a structured
//!   `{"error":{...}}` response with a 4xx status;
//! * semantic problems fail **per request**: an unknown model name or
//!   out-of-range subject yields an error entry in that slot of the results
//!   array while the rest of the batch is answered normally;
//! * responses are serialised by [`wire`] — the same functions a test can
//!   call on in-process results, so wire bytes are provably identical to
//!   direct `ExesService` output;
//! * [`server::ServerHandle::shutdown`] drains everything already admitted
//!   before the process lets go of a single thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod serve;
pub mod server;
pub mod wire;

pub use client::{HttpClient, HttpResponse};
pub use server::{start, start_durable, ServerConfig, ServerHandle};
pub use wire::WireError;
