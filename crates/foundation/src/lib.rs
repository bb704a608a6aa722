//! Foundation types shared by every crate of the dynamic AUTOSAR reproduction.
//!
//! The crate is intentionally small and dependency-light: it defines the
//! strongly typed identifiers used across ECUs, software components, ports and
//! plug-ins ([`ids`]), the dynamic signal value model carried over ports
//! ([`value`]), the deterministic simulation clock ([`time`]) and the shared
//! error type ([`error`]).
//!
//! # Example
//!
//! ```
//! use dynar_foundation::ids::{EcuId, SwcId};
//! use dynar_foundation::value::Value;
//! use dynar_foundation::time::Tick;
//!
//! let ecu = EcuId::new(1);
//! let swc = SwcId::new(ecu, 0);
//! let speed = Value::F64(13.5);
//! assert_eq!(swc.ecu(), ecu);
//! assert!(speed.as_f64().is_some());
//! assert_eq!(Tick::ZERO.advance(10).as_u64(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffers;
pub mod codec;
pub mod error;
pub mod ids;
pub mod intern;
pub mod journal;
pub mod payload;
pub mod pool;
pub mod time;
pub mod value;

pub use error::{DynarError, Result};
pub use ids::{
    AppId, EcuId, PluginId, PluginPortId, PortId, SwcId, UserId, VehicleId, VirtualPortId,
};
pub use intern::{Interner, Slot, SlotSet};
pub use payload::Payload;
pub use time::Tick;
pub use value::Value;
