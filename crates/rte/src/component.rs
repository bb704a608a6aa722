//! Software component descriptors, runnables and the behaviour trait.

use std::fmt;

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{PortId, SwcId};
use dynar_foundation::value::Value;

use crate::port::PortSpec;
use crate::rte::Rte;

/// What causes a runnable to execute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// The runnable executes every `period` ticks.
    Periodic(u64),
    /// The runnable executes when new data arrives on the named required port.
    DataReceived(String),
    /// The runnable only executes when explicitly requested by the platform
    /// (used for start-up and management runnables).
    OnDemand,
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Periodic(p) => write!(f, "periodic({p})"),
            Trigger::DataReceived(port) => write!(f, "data-received({port})"),
            Trigger::OnDemand => f.write_str("on-demand"),
        }
    }
}

/// Static description of one runnable entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnableSpec {
    name: String,
    trigger: Trigger,
}

impl RunnableSpec {
    /// Creates a runnable with the given name and trigger.
    pub fn new(name: impl Into<String>, trigger: Trigger) -> Self {
        RunnableSpec {
            name: name.into(),
            trigger,
        }
    }

    /// The runnable name, unique within its SW-C.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trigger causing the runnable to execute.
    pub fn trigger(&self) -> &Trigger {
        &self.trigger
    }
}

/// Static description of one software component type.
///
/// # Example
/// ```
/// use dynar_rte::component::{RunnableSpec, SwcDescriptor, Trigger};
/// use dynar_rte::port::{PortDirection, PortSpec};
///
/// let desc = SwcDescriptor::new("engine-controller")
///     .with_priority(8)
///     .with_port(PortSpec::sender_receiver("rpm", PortDirection::Required))
///     .with_runnable(RunnableSpec::new("ctl", Trigger::Periodic(10)));
/// assert_eq!(desc.name(), "engine-controller");
/// assert_eq!(desc.ports().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwcDescriptor {
    name: String,
    ports: Vec<PortSpec>,
    runnables: Vec<RunnableSpec>,
    priority: u8,
}

impl SwcDescriptor {
    /// Creates a descriptor with no ports and default task priority 1.
    pub fn new(name: impl Into<String>) -> Self {
        SwcDescriptor {
            name: name.into(),
            ports: Vec::new(),
            runnables: Vec::new(),
            priority: 1,
        }
    }

    /// Adds a port to the descriptor.
    #[must_use]
    pub fn with_port(mut self, port: PortSpec) -> Self {
        self.ports.push(port);
        self
    }

    /// Adds a runnable to the descriptor.
    #[must_use]
    pub fn with_runnable(mut self, runnable: RunnableSpec) -> Self {
        self.runnables.push(runnable);
        self
    }

    /// Sets the priority of the OS task the component's runnables map to.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// The component type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared ports.
    pub fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    /// The declared runnables.
    pub fn runnables(&self) -> &[RunnableSpec] {
        &self.runnables
    }

    /// The task priority of the component.
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// Looks up a port spec by name.
    pub fn port(&self, name: &str) -> Option<&PortSpec> {
        self.ports.iter().find(|p| p.name() == name)
    }

    /// Validates internal consistency: unique port and runnable names, and
    /// data-received triggers referring to declared required ports.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<()> {
        for (i, port) in self.ports.iter().enumerate() {
            if self.ports[..i].iter().any(|p| p.name() == port.name()) {
                return Err(DynarError::invalid_config(format!(
                    "component {} declares port {} twice",
                    self.name,
                    port.name()
                )));
            }
        }
        for (i, runnable) in self.runnables.iter().enumerate() {
            if self.runnables[..i]
                .iter()
                .any(|r| r.name() == runnable.name())
            {
                return Err(DynarError::invalid_config(format!(
                    "component {} declares runnable {} twice",
                    self.name,
                    runnable.name()
                )));
            }
            if let Trigger::DataReceived(port) = runnable.trigger() {
                if self.port(port).is_none() {
                    return Err(DynarError::invalid_config(format!(
                        "runnable {} is triggered by unknown port {port}",
                        runnable.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The behaviour of a software component instance.
///
/// Implementations only ever touch their own ports through the [`RteContext`]
/// handed to them — the AUTOSAR rule that makes SW-Cs relocatable, and the
/// rule the plug-in concept exploits.
pub trait ComponentBehavior: Send {
    /// Called once when the ECU starts, before any runnable executes.
    ///
    /// # Errors
    ///
    /// Implementations may propagate any [`DynarError`]; the ECU records it
    /// and continues starting other components.
    fn on_start(&mut self, ctx: &mut RteContext<'_>) -> Result<()> {
        let _ = ctx;
        Ok(())
    }

    /// Called when one of the component's runnables is triggered.
    ///
    /// # Errors
    ///
    /// Implementations may propagate any [`DynarError`]; the ECU records it
    /// and continues executing other runnables.
    fn on_runnable(&mut self, runnable: &str, ctx: &mut RteContext<'_>) -> Result<()>;

    /// Called when a client invokes an operation on one of the component's
    /// provided client–server ports.
    ///
    /// # Errors
    ///
    /// The default implementation rejects every operation with
    /// [`DynarError::NotFound`].
    fn on_operation(
        &mut self,
        port: &str,
        operation: &str,
        argument: Value,
        ctx: &mut RteContext<'_>,
    ) -> Result<Value> {
        let _ = (argument, ctx);
        Err(DynarError::not_found(
            "operation",
            format!("{port}.{operation}"),
        ))
    }
}

/// The per-invocation view a component behaviour gets of the RTE: access to
/// the ports of exactly one SW-C instance.
#[derive(Debug)]
pub struct RteContext<'a> {
    rte: &'a mut Rte,
    swc: SwcId,
}

impl<'a> RteContext<'a> {
    /// Creates a context scoped to `swc`.  Normally called by the ECU's
    /// scheduler, and by the plug-in SW-C when it re-enters the RTE.
    pub fn new(rte: &'a mut Rte, swc: SwcId) -> Self {
        RteContext { rte, swc }
    }

    /// The SW-C this context is scoped to.
    pub fn swc(&self) -> SwcId {
        self.swc
    }

    /// Writes a value on one of the component's provided ports
    /// (`Rte_Write`).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] when writing on a required port.
    pub fn write(&mut self, port: &str, value: Value) -> Result<()> {
        let port_id = self.rte.port_id(self.swc, port)?;
        self.rte.write_port(port_id, value)
    }

    /// Reads the latest value of one of the component's required ports
    /// without consuming it (`Rte_Read`).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn read(&mut self, port: &str) -> Result<Value> {
        let port_id = self.rte.port_id(self.swc, port)?;
        self.rte.read_port(port_id)
    }

    /// Consumes the next value of one of the component's required ports
    /// (`Rte_Receive`), or `None` when nothing new arrived.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] when receiving on a provided port.
    pub fn receive(&mut self, port: &str) -> Result<Option<Value>> {
        let port_id = self.rte.port_id(self.swc, port)?;
        self.rte.take_port(port_id)
    }

    /// Number of values waiting on one of the component's ports.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn pending(&mut self, port: &str) -> Result<usize> {
        let port_id = self.rte.port_id(self.swc, port)?;
        self.rte.pending_on(port_id)
    }

    // ------------------------------------------------------------------
    // Pre-resolved port access
    //
    // The name-based calls above resolve `port name -> PortId` on every
    // invocation.  Behaviours on the per-tick hot path (the plug-in SW-C's
    // PIRTE pass, the ECM gateway) resolve their ports once and then use the
    // id-based variants, skipping the name hash entirely.
    // ------------------------------------------------------------------

    /// Resolves one of the component's ports to its stable [`PortId`], for
    /// use with the `*_by_id` calls.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port name.
    pub fn port_id(&self, port: &str) -> Result<PortId> {
        self.rte.port_id(self.swc, port)
    }

    /// Writes a value on a pre-resolved provided port (`Rte_Write`).
    ///
    /// # Errors
    ///
    /// As [`RteContext::write`].
    pub fn write_by_id(&mut self, port: PortId, value: Value) -> Result<()> {
        self.rte.write_port(port, value)
    }

    /// Consumes the next value of a pre-resolved required port
    /// (`Rte_Receive`).
    ///
    /// # Errors
    ///
    /// As [`RteContext::receive`].
    pub fn receive_by_id(&mut self, port: PortId) -> Result<Option<Value>> {
        self.rte.take_port(port)
    }

    /// Number of values waiting on a pre-resolved port.
    ///
    /// # Errors
    ///
    /// As [`RteContext::pending`].
    pub fn pending_by_id(&mut self, port: PortId) -> Result<usize> {
        self.rte.pending_on(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PortDirection;

    fn descriptor() -> SwcDescriptor {
        SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required))
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
            .with_runnable(RunnableSpec::new("step", Trigger::Periodic(5)))
            .with_runnable(RunnableSpec::new("rx", Trigger::DataReceived("in".into())))
    }

    #[test]
    fn valid_descriptor_passes_validation() {
        assert!(descriptor().validate().is_ok());
    }

    #[test]
    fn duplicate_port_names_are_rejected() {
        let desc = descriptor().with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        assert!(desc.validate().is_err());
    }

    #[test]
    fn duplicate_runnable_names_are_rejected() {
        let desc = descriptor().with_runnable(RunnableSpec::new("step", Trigger::OnDemand));
        assert!(desc.validate().is_err());
    }

    #[test]
    fn data_received_trigger_must_reference_existing_port() {
        let desc = SwcDescriptor::new("c").with_runnable(RunnableSpec::new(
            "rx",
            Trigger::DataReceived("ghost".into()),
        ));
        assert!(desc.validate().is_err());
    }

    #[test]
    fn port_lookup_by_name() {
        let desc = descriptor();
        assert!(desc.port("out").is_some());
        assert!(desc.port("nope").is_none());
        assert_eq!(desc.priority(), 1);
        assert_eq!(desc.runnables().len(), 2);
    }

    #[test]
    fn trigger_display() {
        assert_eq!(Trigger::Periodic(10).to_string(), "periodic(10)");
        assert_eq!(
            Trigger::DataReceived("in".into()).to_string(),
            "data-received(in)"
        );
        assert_eq!(Trigger::OnDemand.to_string(), "on-demand");
    }
}
