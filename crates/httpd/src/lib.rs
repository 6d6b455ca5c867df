//! # httpd — minimal HTTP/1.1 stack over pluggable transports
//!
//! The paper's SDE publishes WSDL/IDL/IOR documents through an "Interface
//! Server" (a simple HTTP server) and serves SOAP calls over HTTP, exactly
//! as Apache Axis did. This crate supplies that substrate:
//!
//! * [`transport`] — a byte-stream transport abstraction with two
//!   schemes: real TCP (used by the benchmark harness, mirroring the
//!   paper's LAN testbed) and named in-process `AF_UNIX` socket pairs
//!   (`mem://`, used by tests and the consistency-matrix experiments),
//! * [`Request`] / [`Response`] — HTTP/1.1 message types with parsing and
//!   serialization,
//! * [`HttpServer`] — a server dispatching to a [`Handler`]; both schemes
//!   are served by one engine, the epoll [`reactor`] with a bounded
//!   dispatch pool,
//! * [`HttpClient`] — a blocking client.
//!
//! The crate targets Linux (epoll, `AF_UNIX` socket pairs).
//!
//! # Examples
//!
//! ```
//! use httpd::{Handler, HttpClient, HttpServer, Request, Response};
//!
//! # fn main() -> Result<(), httpd::HttpError> {
//! struct Hello;
//! impl Handler for Hello {
//!     fn handle(&self, req: &Request) -> Response {
//!         Response::ok(format!("hello {}", req.path()).into_bytes(), "text/plain")
//!     }
//! }
//!
//! let server = HttpServer::bind("mem://doc-example", Hello)?;
//! let resp = HttpClient::new().get(&format!("{}/world", server.base_url()))?;
//! assert_eq!(resp.status(), 200);
//! assert_eq!(resp.body_str(), "hello /world");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod client;
mod error;
pub mod fault;
mod gate;
mod message;
mod pool;
mod rserver;
mod server;
pub mod transport;

pub use client::{Connection, HttpClient};
pub use error::HttpError;
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultSide};
pub use gate::{Admitted, DrainGate};
pub use message::{Headers, Limits, Method, Request, Response, Status};
pub use pool::ConnectionPool;
#[doc(hidden)]
pub use rserver::accept_into_reactor;
pub use server::{Handler, HttpServer, PoolConfig};
