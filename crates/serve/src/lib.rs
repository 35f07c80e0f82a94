//! # gel-serve — a concurrent GEL query service
//!
//! Turns the compiled evaluation engine of `gel-lang` into a
//! long-running server: register graphs under names, submit `GEL(Ω,Θ)`
//! expressions (surface syntax or a sharing-preserving binary AST),
//! get embedding tables back — over a length-prefixed framed wire
//! protocol on loopback/LAN TCP.
//!
//! The pieces, each with detailed module docs:
//!
//! * [`proto`] — frames, request/response payloads, the binary
//!   expression and graph codecs, and the adversarial-input hardening
//!   (every length validated before allocation, recursion depth
//!   capped);
//! * [`cache`] — a shared LRU cache of persistent [`gel_lang::EvalEngine`]s
//!   keyed by `(dag_hash, graph shape)`, with checkout/put-back
//!   semantics so one expression never lowers twice;
//! * [`server`] — the blocking thread-per-connection server with
//!   admission control and typed error frames; every eval request
//!   runs through one engine cache whose engines keep a sparse root
//!   sparse, and a result ships dense or sparse by its size alone;
//! * [`client`] — a blocking client with typed convenience calls;
//! * [`load`] — the concurrent load generator behind
//!   `gel-bench --bench serve`.
//!
//! ## Example
//!
//! ```
//! use gel_serve::{Client, ServeOptions, Server};
//! use gel_graph::families::cycle;
//!
//! let server = Server::bind(ServeOptions::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.register_graph("c5", &cycle(5)).unwrap();
//! // deg(v) of every vertex in the 5-cycle.
//! let (vars, dim, n, data) =
//!     client.eval_text("c5", "sum_{x2}(const[1] | E(x1,x2))").unwrap();
//! assert_eq!((vars.as_slice(), dim, n), ([1u8].as_slice(), 1, 5));
//! assert_eq!(data, vec![2.0; 5]);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod load;
pub mod proto;
pub mod server;

pub use cache::{Checkout, PlanCache, PlanKey};
pub use client::{Client, ClientError};
pub use load::{run_load, run_load_batched, LoadConfig, LoadReport};
pub use proto::{ErrorCode, ProtoError, Request, Response, StatsReply, TableData, WireTable};
pub use server::{ServeOptions, Server};
