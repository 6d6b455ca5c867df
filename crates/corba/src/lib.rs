//! # corba — a CORBA-RMI substrate: IDL, CDR, GIOP/IIOP, IOR, ORBs
//!
//! The CORBA side of the reproduction, standing in for OpenORB (§2.2,
//! §5.2 of the paper). Implemented from scratch at the protocol level:
//!
//! * [`idl`] — the CORBA-IDL document model with a **generator** (the IDL
//!   Generator of §5.2) and a recursive-descent **parser** (the client's
//!   "IDL compiler", Fig 2),
//! * [`cdr`] — Common Data Representation marshalling with natural
//!   alignment and both byte orders,
//! * [`giop`] — GIOP 1.0 `Request`/`Reply` messages over any
//!   [`httpd::transport`] stream (IIOP when the transport is TCP),
//! * [`Ior`] — Interoperable Object References including the stringified
//!   `IOR:...` form the paper's Interface Server publishes,
//! * [`ServerOrb`] with the **Dynamic Skeleton Interface** — the paper
//!   uses DSI precisely so the server ORB need not be reinitialized when
//!   methods change (§5.2.2) — and [`DiiRequest`], the **Dynamic
//!   Invocation Interface** used by CDE (§2.3).
//!
//! # Examples
//!
//! ```
//! use corba::{DiiRequest, DynamicImplementation, ServerOrb, ServerRequest};
//! use jpie::Value;
//!
//! # fn main() -> Result<(), corba::CorbaError> {
//! struct Echo;
//! impl DynamicImplementation for Echo {
//!     fn invoke(&self, req: &mut ServerRequest) {
//!         let args = req.arguments().to_vec();
//!         req.set_result(args.into_iter().next().unwrap_or(Value::Null));
//!     }
//! }
//!
//! let orb = ServerOrb::init("mem://doc-orb", "IDL:Echo:1.0", Echo)?;
//! let ior = orb.ior();
//! let reply = DiiRequest::new(&ior, "echo")
//!     .arg(Value::Str("hi".into()))
//!     .invoke()?;
//! assert_eq!(reply, Value::Str("hi".into()));
//! orb.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod cdr;
mod error;
pub mod giop;
pub mod idl;
mod ior;
mod orb;
mod rorb;

pub use error::{CorbaError, SystemExceptionKind};
pub use idl::{IdlInterface, IdlModule, IdlOperation};
pub use ior::Ior;
pub use orb::{DiiRequest, DynamicImplementation, OrbConnection, ServerOrb, ServerRequest};
