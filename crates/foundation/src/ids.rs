//! Strongly typed identifiers.
//!
//! The paper's dynamic component model juggles several id spaces at once:
//! ECUs, software components (SW-Cs), SW-C ports, PIRTE virtual ports,
//! plug-in-local ports, plug-ins, applications (bundles of plug-ins), vehicles
//! and users.  Confusing any two of these spaces produces exactly the kind of
//! mis-routing bug the PIC/PLC contexts are designed to prevent, so each space
//! gets its own newtype here ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// Identifier of an electronic control unit within one vehicle.
///
/// # Example
/// ```
/// use dynar_foundation::ids::EcuId;
/// let ecu = EcuId::new(2);
/// assert_eq!(ecu.index(), 2);
/// assert_eq!(ecu.to_string(), "ECU2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EcuId(u16);

impl EcuId {
    /// Creates an ECU identifier from its index within the vehicle topology.
    pub fn new(index: u16) -> Self {
        EcuId(index)
    }

    /// Returns the raw index.
    pub fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for EcuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ECU{}", self.0)
    }
}

/// Identifier of a software component instance, scoped to its hosting ECU.
///
/// # Example
/// ```
/// use dynar_foundation::ids::{EcuId, SwcId};
/// let swc = SwcId::new(EcuId::new(1), 3);
/// assert_eq!(swc.ecu().index(), 1);
/// assert_eq!(swc.local_index(), 3);
/// assert_eq!(swc.to_string(), "ECU1/SWC3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwcId {
    ecu: EcuId,
    local: u16,
}

impl SwcId {
    /// Creates a SW-C identifier from its hosting ECU and per-ECU index.
    pub fn new(ecu: EcuId, local: u16) -> Self {
        SwcId { ecu, local }
    }

    /// The ECU hosting this SW-C.
    pub fn ecu(self) -> EcuId {
        self.ecu
    }

    /// The SW-C index local to its ECU.
    pub fn local_index(self) -> u16 {
        self.local
    }
}

impl fmt::Display for SwcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/SWC{}", self.ecu, self.local)
    }
}

/// Identifier of an AUTOSAR SW-C port, scoped to its owning SW-C.
///
/// These are the `S0`, `S1`, ... ports of the paper's Figure 3: ordinary RTE
/// ports, regardless of whether the PIRTE treats them as type I, II or III.
///
/// # Example
/// ```
/// use dynar_foundation::ids::{EcuId, PortId, SwcId};
/// let swc = SwcId::new(EcuId::new(1), 0);
/// let port = PortId::new(swc, 4);
/// assert_eq!(port.swc(), swc);
/// assert_eq!(port.to_string(), "ECU1/SWC0:S4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId {
    swc: SwcId,
    index: u16,
}

impl PortId {
    /// Creates a port identifier from its owning SW-C and port index.
    pub fn new(swc: SwcId, index: u16) -> Self {
        PortId { swc, index }
    }

    /// The SW-C owning this port.
    pub fn swc(self) -> SwcId {
        self.swc
    }

    /// The port index within its SW-C.
    pub fn index(self) -> u16 {
        self.index
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:S{}", self.swc, self.index)
    }
}

/// Identifier of a PIRTE virtual port (the `V0`, `V1`, ... ports of Figure 3).
///
/// Virtual ports are the static API exposed by a plug-in SW-C to the plug-ins
/// it hosts; they are scoped to that SW-C.
///
/// # Example
/// ```
/// use dynar_foundation::ids::VirtualPortId;
/// let v = VirtualPortId::new(5);
/// assert_eq!(v.index(), 5);
/// assert_eq!(v.to_string(), "V5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualPortId(u16);

impl VirtualPortId {
    /// Creates a virtual-port identifier from its index within the PIRTE.
    pub fn new(index: u16) -> Self {
        VirtualPortId(index)
    }

    /// Returns the index within the PIRTE.
    pub fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for VirtualPortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// Identifier of a plug-in port (the `P0`, `P1`, ... ports of Figure 3).
///
/// Plug-in port ids are *SW-C-scope unique*: the trusted server assigns them
/// when it generates the Port Initialization Context so that any number of
/// plug-ins can coexist inside one plug-in SW-C without colliding.
///
/// # Example
/// ```
/// use dynar_foundation::ids::PluginPortId;
/// let p = PluginPortId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PluginPortId(u32);

impl PluginPortId {
    /// Creates a plug-in port identifier from its SW-C-scope unique index.
    pub fn new(index: u32) -> Self {
        PluginPortId(index)
    }

    /// Returns the SW-C-scope unique index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PluginPortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Globally unique identifier of an installed plug-in instance.
///
/// # Example
/// ```
/// use dynar_foundation::ids::PluginId;
/// let com = PluginId::new("COM");
/// assert_eq!(com.name(), "COM");
/// assert_eq!(com.to_string(), "plugin:COM");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PluginId(String);

impl PluginId {
    /// Creates a plug-in identifier from its unique name.
    pub fn new(name: impl Into<String>) -> Self {
        PluginId(name.into())
    }

    /// Returns the plug-in name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PluginId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plugin:{}", self.0)
    }
}

impl From<&str> for PluginId {
    fn from(name: &str) -> Self {
        PluginId::new(name)
    }
}

/// Identifier of an application: a deployable bundle of one or more plug-ins
/// stored in the trusted server's `APP` module.
///
/// # Example
/// ```
/// use dynar_foundation::ids::AppId;
/// let app = AppId::new("remote-control");
/// assert_eq!(app.name(), "remote-control");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(String);

impl AppId {
    /// Creates an application identifier from its unique name.
    pub fn new(name: impl Into<String>) -> Self {
        AppId(name.into())
    }

    /// Returns the application name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app:{}", self.0)
    }
}

impl From<&str> for AppId {
    fn from(name: &str) -> Self {
        AppId::new(name)
    }
}

/// Identifier of a vehicle registered with the trusted server.
///
/// # Example
/// ```
/// use dynar_foundation::ids::VehicleId;
/// let vin = VehicleId::new("VIN-0001");
/// assert_eq!(vin.vin(), "VIN-0001");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(String);

impl VehicleId {
    /// Creates a vehicle identifier from its VIN-like unique string.
    pub fn new(vin: impl Into<String>) -> Self {
        VehicleId(vin.into())
    }

    /// Returns the VIN-like unique string.
    pub fn vin(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vehicle:{}", self.0)
    }
}

impl From<&str> for VehicleId {
    fn from(vin: &str) -> Self {
        VehicleId::new(vin)
    }
}

/// Identifier of a user account on the trusted server.
///
/// # Example
/// ```
/// use dynar_foundation::ids::UserId;
/// let user = UserId::new("alice");
/// assert_eq!(user.name(), "alice");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(String);

impl UserId {
    /// Creates a user identifier from its unique account name.
    pub fn new(name: impl Into<String>) -> Self {
        UserId(name.into())
    }

    /// Returns the account name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user:{}", self.0)
    }
}

impl From<&str> for UserId {
    fn from(name: &str) -> Self {
        UserId::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ecu_id_round_trip() {
        let ecu = EcuId::new(7);
        assert_eq!(ecu.index(), 7);
        assert_eq!(format!("{ecu}"), "ECU7");
    }

    #[test]
    fn swc_id_carries_ecu() {
        let swc = SwcId::new(EcuId::new(3), 9);
        assert_eq!(swc.ecu(), EcuId::new(3));
        assert_eq!(swc.local_index(), 9);
        assert_eq!(format!("{swc}"), "ECU3/SWC9");
    }

    #[test]
    fn port_id_is_scoped_to_swc() {
        let a = PortId::new(SwcId::new(EcuId::new(0), 0), 1);
        let b = PortId::new(SwcId::new(EcuId::new(1), 0), 1);
        assert_ne!(a, b, "same index on different SW-Cs must differ");
        assert_eq!(format!("{a}"), "ECU0/SWC0:S1");
    }

    #[test]
    fn plugin_and_virtual_ports_display_like_figure_3() {
        assert_eq!(PluginPortId::new(3).to_string(), "P3");
        assert_eq!(VirtualPortId::new(5).to_string(), "V5");
    }

    #[test]
    fn string_ids_compare_by_content() {
        assert_eq!(PluginId::new("COM"), PluginId::from("COM"));
        assert_eq!(AppId::new("x"), AppId::from("x"));
        assert_eq!(VehicleId::new("v"), VehicleId::from("v"));
        assert_eq!(UserId::new("u"), UserId::from("u"));
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for ecu in 0..4u16 {
            for swc in 0..4u16 {
                for port in 0..4u16 {
                    set.insert(PortId::new(SwcId::new(EcuId::new(ecu), swc), port));
                }
            }
        }
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn ordering_is_lexicographic_over_components() {
        let lo = SwcId::new(EcuId::new(0), 5);
        let hi = SwcId::new(EcuId::new(1), 0);
        assert!(lo < hi);
    }
}
