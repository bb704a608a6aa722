//! Virtual ports: the static API a plug-in SW-C exposes to its plug-ins.
//!
//! The static part of the PIRTE "consists of a mapping between the SW-C ports
//! and the so-called virtual ports, which build up the actual static API
//! available to the plug-ins" (§3.1.2).  Every virtual port references exactly
//! one SW-C port, carries the port type (I, II or III of §3.1.3) and an
//! optional value transformation, since "the plug-in and SW-C ports can have
//! completely different formats, as long as the PIRTE is able to translate
//! between these formats in its virtual ports".

use std::fmt;

use dynar_foundation::ids::VirtualPortId;
use dynar_foundation::value::Value;

/// The three special-purpose SW-C port types of the dynamic component model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Connects a plug-in SW-C with the ECM SW-C (management and external
    /// traffic).
    TypeI,
    /// Connects plug-in SW-Cs with each other (multiplexed plug-in data).
    TypeII,
    /// Connects a plug-in SW-C with the built-in software (ordinary AUTOSAR
    /// signals).
    TypeIII,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::TypeI => f.write_str("type I"),
            PortKind::TypeII => f.write_str("type II"),
            PortKind::TypeIII => f.write_str("type III"),
        }
    }
}

/// Which way data flows through a virtual port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDataDirection {
    /// Data arrives on the SW-C port and is delivered into plug-in ports.
    ToPlugins,
    /// Plug-ins write data that leaves through the SW-C port.
    ToSystem,
}

/// A value transformation applied by a virtual port when translating between
/// plug-in and SW-C formats.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PortTransform {
    /// Pass values through unchanged.
    #[default]
    Identity,
    /// Multiply numeric values by a factor (e.g. km/h to m/s).
    Scale(f64),
    /// Clamp numeric values into a range (a simple fault-protection mechanism
    /// for critical signals, §3.1.1).
    Clamp {
        /// Smallest admissible value.
        min: f64,
        /// Largest admissible value.
        max: f64,
    },
}

impl PortTransform {
    /// Applies the transformation.  Non-numeric values pass through unchanged
    /// for `Scale` and `Clamp`.
    pub fn apply(&self, value: Value) -> Value {
        match self {
            PortTransform::Identity => value,
            PortTransform::Scale(factor) => match value.as_f64() {
                Some(v) => Value::F64(v * factor),
                None => value,
            },
            PortTransform::Clamp { min, max } => match value.as_f64() {
                Some(v) => Value::F64(v.clamp(*min, *max)),
                None => value,
            },
        }
    }
}

/// The static declaration of one virtual port.
///
/// # Example
/// ```
/// use dynar_core::virtual_port::{PortDataDirection, PortKind, PortTransform, VirtualPortSpec};
/// use dynar_foundation::ids::VirtualPortId;
///
/// let speed_req = VirtualPortSpec::new(
///     VirtualPortId::new(5),
///     "SpeedReq",
///     PortKind::TypeIII,
///     PortDataDirection::ToSystem,
///     "speed_req",
/// )
/// .with_transform(PortTransform::Clamp { min: 0.0, max: 30.0 });
/// assert_eq!(speed_req.name(), "SpeedReq");
/// assert_eq!(speed_req.swc_port(), "speed_req");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualPortSpec {
    id: VirtualPortId,
    name: String,
    kind: PortKind,
    direction: PortDataDirection,
    swc_port: String,
    transform: PortTransform,
}

impl VirtualPortSpec {
    /// Creates a virtual-port declaration.
    pub fn new(
        id: VirtualPortId,
        name: impl Into<String>,
        kind: PortKind,
        direction: PortDataDirection,
        swc_port: impl Into<String>,
    ) -> Self {
        VirtualPortSpec {
            id,
            name: name.into(),
            kind,
            direction,
            swc_port: swc_port.into(),
            transform: PortTransform::Identity,
        }
    }

    /// Attaches a value transformation.
    #[must_use]
    pub fn with_transform(mut self, transform: PortTransform) -> Self {
        self.transform = transform;
        self
    }

    /// The virtual-port identifier (the `V0`, `V1`, ... of Figure 3).
    pub fn id(&self) -> VirtualPortId {
        self.id
    }

    /// The human-readable name, e.g. `WheelsReq`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The port type (I, II or III).
    pub fn kind(&self) -> PortKind {
        self.kind
    }

    /// The data-flow direction.
    pub fn direction(&self) -> PortDataDirection {
        self.direction
    }

    /// The SW-C port this virtual port maps onto.
    pub fn swc_port(&self) -> &str {
        &self.swc_port
    }

    /// The value transformation applied when crossing this virtual port.
    pub fn transform(&self) -> PortTransform {
        self.transform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transforms_apply_to_numbers_only() {
        assert_eq!(
            PortTransform::Scale(2.0).apply(Value::I64(21)),
            Value::F64(42.0)
        );
        assert_eq!(
            PortTransform::Scale(2.0).apply(Value::Text("x".into())),
            Value::Text("x".into())
        );
        assert_eq!(
            PortTransform::Clamp {
                min: 0.0,
                max: 10.0
            }
            .apply(Value::F64(99.0)),
            Value::F64(10.0)
        );
        assert_eq!(
            PortTransform::Clamp {
                min: 0.0,
                max: 10.0
            }
            .apply(Value::F64(-5.0)),
            Value::F64(0.0)
        );
        assert_eq!(PortTransform::Identity.apply(Value::Void), Value::Void);
    }

    #[test]
    fn spec_accessors() {
        let spec = VirtualPortSpec::new(
            VirtualPortId::new(3),
            "WheelsReq",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "wheels_req",
        );
        assert_eq!(spec.id(), VirtualPortId::new(3));
        assert_eq!(spec.kind(), PortKind::TypeIII);
        assert_eq!(spec.direction(), PortDataDirection::ToSystem);
        assert_eq!(spec.transform(), PortTransform::Identity);
    }

    #[test]
    fn port_kind_display() {
        assert_eq!(PortKind::TypeI.to_string(), "type I");
        assert_eq!(PortKind::TypeII.to_string(), "type II");
        assert_eq!(PortKind::TypeIII.to_string(), "type III");
    }
}
