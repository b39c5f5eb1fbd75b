#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `rps-serve`: a multi-tenant TCP front-end for RPS cubes.
//!
//! The serving layer that turns the workspace's engines into a network
//! service: many named per-tenant cubes behind the length-prefixed,
//! CRC-sealed [`RPSWIRE1`](wire) binary protocol, a fixed worker thread
//! pool, per-tenant admission control ([`quota`]), and a Prometheus
//! `/metrics` endpoint on the same listener. Reads run on
//! [`VersionedEngine`](rps_core::VersionedEngine) published snapshots,
//! which never wait for a writer's copy-on-write work; writes go
//! WAL-first through the durable path with an automatic
//! [`SnapshotPolicy`](rps_storage::SnapshotPolicy) checkpoint trigger.
//!
//! docs/SERVING.md specifies the wire format and rejection semantics
//! (enforced against this crate by the `serve_wire` golden test);
//! docs/OPERATIONS.md is the operational runbook.
//!
//! # Quick start
//!
//! Serve an ephemeral cube in-process and query it over loopback:
//!
//! ```
//! use rps_serve::{Client, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr();
//! server.create_tenant("sales", &[64, 64])?;
//! let handle = server.shutdown_handle();
//! let running = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! client.update("sales", &[3, 4], 7)?;
//! assert_eq!(client.query("sales", &[0, 0], &[63, 63])?, 7);
//!
//! handle.shutdown();
//! let report = running.join().expect("server thread panicked")?;
//! assert_eq!(report.workers_joined, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod obs;
pub mod quota;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{scrape_metrics, Client, ClientError};
pub use quota::{QuotaState, TenantQuota};
pub use server::{DrainReport, Server, ServerConfig, ShutdownHandle};
pub use tenant::{Persistence, Registry, ServeError, Tenant};
pub use wire::{Frame, Opcode, RejectCode, TenantStats, WireError};

/// The wire specification, included so its client example compiles and
/// runs as a doctest — docs/SERVING.md cannot drift from the API.
#[doc = include_str!("../../../docs/SERVING.md")]
pub mod serving_spec {}
