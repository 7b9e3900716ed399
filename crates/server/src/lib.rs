//! Placement-as-a-service: an embeddable HTTP/1.1 front end over the
//! floorplanning pipeline, with warm per-site caches.
//!
//! Every other entry point in the workspace (`pvplan` and its `suite`,
//! the bench bins) is a batch run: extract a site, place modules, print, exit
//! — and the warm-reuse machinery of the incremental evaluator (the shared
//! [`TraceMemo`](pv_floorplan::TraceMemo) behind `anneal_with_memo` and
//! every report) dies with the process. This crate turns
//! that machinery into a *service*: a [`PlacementService`] keeps an LRU of
//! per-site state — extracted [`SolarDataset`](pv_gis::SolarDataset),
//! [`SuitabilityMap`](pv_floorplan::SuitabilityMap) and a warm
//! `TraceMemo`, keyed by a canonical hash of the request's
//! [`ScenarioSpec`](pv_gis::ScenarioSpec) — so a repeat request for a
//! known site skips extraction entirely and starts the optimizer on warm
//! traces, and a [`Server`] serves that core over plain TCP with a
//! bounded-queue worker pool ([`pv_runtime::WorkerPool`]).
//!
//! # Endpoints
//!
//! | route | method | body | response |
//! |-------|--------|------|----------|
//! | `/v1/place` | POST | spec string or JSON request | placement + energy report (JSON) |
//! | `/v1/healthz` | GET | — | `{"status": "ok"}` |
//! | `/v1/stats` | GET | — | cache hits/misses, snapshot-store counters, queue depth, histogram quantiles, sparse histogram encodings |
//! | `/v1/metrics` | GET | — | Prometheus exposition text of the same snapshot: counters (store counters included), gauges, rates, latency + per-stage histograms |
//!
//! # Observability
//!
//! Instrumentation lives in [`pv_obs`] and stays strictly outside the
//! determinism boundary: per-request trace spans (propagated router →
//! shard via the internal hop-by-hop `x-pv-trace` header, which responses
//! never echo), a lossy ring-buffered JSONL trace log flushed off the
//! request path ([`Handler::after_response`]), and fixed-bucket latency
//! histograms that merge **exactly** across shards — the router's
//! `/v1/stats` and `/v1/metrics` report fleet quantiles from the merged
//! histogram, not an average of per-shard quantiles. None of it can
//! change a `/v1/place` byte (pinned end-to-end in `tests/server.rs`).
//!
//! # Determinism contract
//!
//! A `/v1/place` response body is a **pure function of the request**: the
//! solve runs sequentially inside one worker with a seed derived from the
//! request, cache warmth only changes *latency* (the PR 3 bit-identity
//! contract guarantees warm traces change no values), and no timing or
//! cache metadata is ever put in a place response. Identical requests
//! therefore produce byte-identical bodies on any worker count and under
//! any request interleaving — the serving-side extension of the
//! workspace-wide determinism guarantee (DESIGN.md). The optional
//! snapshot store ([`pv_store::SiteStore`], attached via
//! [`PlacementService::with_store`]) extends "warmth is latency-only"
//! across restarts: hydrated state changes which requests are cache
//! hits, never what any response contains.
//!
//! # Example
//!
//! ```
//! use pv_server::{PlacementService, Server, ServiceConfig};
//! use pv_runtime::Runtime;
//! use std::sync::Arc;
//!
//! let service = Arc::new(PlacementService::new(ServiceConfig::tiny()));
//! let server = Server::bind("127.0.0.1:0", service, Runtime::with_threads(2), 16).unwrap();
//! let spec = pv_gis::ScenarioSpec::generate(2018, 0).to_spec_string();
//! let (status, body) =
//!     pv_server::http::send_request(server.local_addr(), "POST", "/v1/place", spec.as_bytes())
//!         .unwrap();
//! assert_eq!(status, 200, "{body}");
//! assert!(body.contains("\"energy_wh\""));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod ring;
pub mod router;
pub mod server;
pub mod service;
pub mod stats;

pub use ring::HashRing;
pub use router::{place_shard_key, Router, RouterConfig};
pub use server::{Handler, RequestContext, Server, READ_DEADLINE};
pub use service::{ClockRefusal, PlaceRequest, PlacementService, ServiceConfig};
pub use stats::{percentile_us, ServiceStats, StatsSnapshot};
