//! The per-ECU RTE engine: port registry, local routing and network mapping.
//!
//! # Routing planes
//!
//! The RTE keeps its wiring in two representations:
//!
//! * The **slow plane** — `connections`, `tx_mapping`, `rx_mapping` — is the
//!   declarative source of truth, keyed by the strongly typed [`PortId`] /
//!   [`CanId`] spaces.  It changes only on reconfiguration: component
//!   registration, (dis)connect and (un)mapping calls.
//! * The **fast plane** — flat `Vec`s indexed by dense [`Slot`]s handed out by
//!   [`Interner`]s — is compiled from the slow plane whenever it changes.
//!   Every per-signal operation (`write_port`, `deliver_inbound`, `take_port`)
//!   resolves its port id to a slot once and then walks plain vectors.
//!
//! Values are delivered by reference and cloned exactly once, at the receiving
//! buffer boundary; the last receiver of a write takes the value by move.

use std::collections::HashMap;

use dynar_bus::frame::CanId;
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{PortId, SwcId};
use dynar_foundation::intern::{Interner, Slot};
use dynar_foundation::value::Value;

use crate::component::SwcDescriptor;
use crate::port::{check_connectable, PortBuffer, PortDirection, PortSpec};

/// Counters describing the signal traffic through one RTE instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RteStats {
    /// Writes issued by component behaviours.
    pub writes: u64,
    /// Signals routed to a local required port.
    pub local_routes: u64,
    /// Signals queued for transmission on the in-vehicle network.
    pub network_routes: u64,
    /// Writes on ports with neither a local connection nor a network mapping.
    pub unconnected_writes: u64,
    /// Values delivered from the network into required ports.
    pub network_deliveries: u64,
    /// Values dropped because a queued port overflowed.
    pub queue_overflows: u64,
}

#[derive(Debug, Clone)]
struct PortRuntime {
    id: PortId,
    spec: PortSpec,
    buffer: PortBuffer,
}

/// The RTE instance of one ECU.
///
/// The RTE knows every SW-C registered on its ECU, owns the runtime buffers of
/// their ports, routes written values to locally connected ports and queues
/// values bound for other ECUs as `(frame id, value)` pairs for the
/// communication stack to pick up.
#[derive(Debug, Default)]
pub struct Rte {
    components: HashMap<SwcId, SwcDescriptor>,
    /// SW-C -> port name -> port id.  Nested (rather than keyed by a
    /// `(SwcId, String)` pair) so name-based lookups on the signal path
    /// borrow the query string instead of allocating a key per call.
    port_names: HashMap<SwcId, HashMap<String, PortId>>,
    // --- Slow plane: the declarative wiring -----------------------------
    /// provided port -> locally connected required ports.
    connections: HashMap<PortId, Vec<PortId>>,
    /// provided port -> frame id used to transmit its signal off-ECU.
    tx_mapping: HashMap<PortId, CanId>,
    /// frame id -> required ports fed by that signal on this ECU.
    rx_mapping: HashMap<CanId, Vec<PortId>>,
    // --- Fast plane: compiled, densely indexed route tables -------------
    /// Port id -> dense slot; slots index `ports`, `local_routes`, `tx_routes`.
    port_slots: Interner<PortId>,
    /// Port runtimes, indexed by port slot.
    ports: Vec<PortRuntime>,
    /// provider slot -> requirer slots (compiled from `connections`).
    local_routes: Vec<Vec<Slot>>,
    /// provider slot -> outbound frame (compiled from `tx_mapping`).
    tx_routes: Vec<Option<CanId>>,
    /// Frame id -> dense slot; slots index `rx_routes`.
    frame_slots: Interner<CanId>,
    /// frame slot -> requirer slots (compiled from `rx_mapping`).
    rx_routes: Vec<Vec<Slot>>,
    // --- Runtime queues --------------------------------------------------
    /// values queued for the communication stack.
    outbound: Vec<(CanId, Value)>,
    /// required ports that received new data since the last drain.
    data_received: Vec<PortId>,
    stats: RteStats,
}

impl Rte {
    /// Creates an empty RTE instance.
    pub fn new() -> Self {
        Rte::default()
    }

    /// Signal-traffic statistics accumulated so far.
    pub fn stats(&self) -> RteStats {
        self.stats
    }

    /// Registers a component's ports under the given SW-C instance id.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the instance id is already
    /// registered and [`DynarError::InvalidConfiguration`] if the descriptor
    /// fails validation.
    pub fn register_component(&mut self, swc: SwcId, descriptor: &SwcDescriptor) -> Result<()> {
        if self.components.contains_key(&swc) {
            return Err(DynarError::duplicate("software component", swc));
        }
        descriptor.validate()?;
        for (index, spec) in descriptor.ports().iter().enumerate() {
            let port_id = PortId::new(swc, index as u16);
            let slot = self.port_slots.intern(port_id);
            debug_assert_eq!(slot.index(), self.ports.len(), "ports are never removed");
            self.ports.push(PortRuntime {
                id: port_id,
                spec: spec.clone(),
                buffer: PortBuffer::for_interface(spec.interface()),
            });
            self.local_routes.push(Vec::new());
            self.tx_routes.push(None);
            self.port_names
                .entry(swc)
                .or_default()
                .insert(spec.name().to_owned(), port_id);
        }
        self.components.insert(swc, descriptor.clone());
        Ok(())
    }

    /// The descriptor a SW-C instance was registered with.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown instance.
    pub fn descriptor(&self, swc: SwcId) -> Result<&SwcDescriptor> {
        self.components
            .get(&swc)
            .ok_or_else(|| DynarError::not_found("software component", swc))
    }

    /// All SW-C instances registered on this RTE.
    pub fn component_ids(&self) -> Vec<SwcId> {
        let mut ids: Vec<SwcId> = self.components.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Resolves a port by SW-C instance and port name.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the SW-C or port is unknown.
    pub fn port_id(&self, swc: SwcId, name: &str) -> Result<PortId> {
        self.port_names
            .get(&swc)
            .and_then(|ports| ports.get(name))
            .copied()
            .ok_or_else(|| DynarError::not_found("port", format!("{swc}:{name}")))
    }

    /// The dense slot the fast plane assigned to a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn port_slot(&self, port: PortId) -> Result<Slot> {
        self.port_slots
            .get(&port)
            .ok_or_else(|| DynarError::not_found("port", port))
    }

    /// The static spec of a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn port_spec(&self, port: PortId) -> Result<&PortSpec> {
        Ok(&self.ports[self.port_slot(port)?.index()].spec)
    }

    /// Connects a provided port to a required port on the same ECU
    /// (an assembly connector).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown ports and
    /// [`DynarError::InvalidConfiguration`] for incompatible port pairs.
    pub fn connect(&mut self, provider: PortId, requirer: PortId) -> Result<()> {
        let provider_spec = self.port_spec(provider)?;
        let requirer_spec = self.port_spec(requirer)?;
        check_connectable(provider_spec, requirer_spec)?;
        self.connections.entry(provider).or_default().push(requirer);
        self.rebuild_routes();
        Ok(())
    }

    /// Removes an assembly connector previously created by [`Rte::connect`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the connector does not exist.
    pub fn disconnect(&mut self, provider: PortId, requirer: PortId) -> Result<()> {
        let requirers = self
            .connections
            .get_mut(&provider)
            .ok_or_else(|| DynarError::not_found("connection", provider))?;
        let position = requirers
            .iter()
            .position(|r| *r == requirer)
            .ok_or_else(|| DynarError::not_found("connection", requirer))?;
        requirers.remove(position);
        if requirers.is_empty() {
            self.connections.remove(&provider);
        }
        self.rebuild_routes();
        Ok(())
    }

    /// Maps a provided port onto a network frame id for off-ECU transmission.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] if the port is not provided.
    pub fn map_signal_out(&mut self, provider: PortId, frame: CanId) -> Result<()> {
        let spec = self.port_spec(provider)?;
        if spec.direction() != PortDirection::Provided {
            return Err(DynarError::PortDirection {
                port: provider.to_string(),
                expected: "provided",
            });
        }
        self.tx_mapping.insert(provider, frame);
        self.rebuild_routes();
        Ok(())
    }

    /// Removes the outbound network mapping of a provided port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the port has no outbound mapping.
    pub fn unmap_signal_out(&mut self, provider: PortId) -> Result<CanId> {
        let frame = self
            .tx_mapping
            .remove(&provider)
            .ok_or_else(|| DynarError::not_found("signal mapping", provider))?;
        self.rebuild_routes();
        Ok(frame)
    }

    /// Maps an incoming network frame id onto a required port of this ECU.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] if the port is not required.
    pub fn map_signal_in(&mut self, frame: CanId, requirer: PortId) -> Result<()> {
        let spec = self.port_spec(requirer)?;
        if spec.direction() != PortDirection::Required {
            return Err(DynarError::PortDirection {
                port: requirer.to_string(),
                expected: "required",
            });
        }
        self.rx_mapping.entry(frame).or_default().push(requirer);
        self.rebuild_routes();
        Ok(())
    }

    /// Removes the inbound mapping from `frame` onto `requirer`.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the mapping does not exist.
    pub fn unmap_signal_in(&mut self, frame: CanId, requirer: PortId) -> Result<()> {
        let requirers = self
            .rx_mapping
            .get_mut(&frame)
            .ok_or_else(|| DynarError::not_found("signal mapping", frame))?;
        let position = requirers
            .iter()
            .position(|r| *r == requirer)
            .ok_or_else(|| DynarError::not_found("signal mapping", requirer))?;
        requirers.remove(position);
        if requirers.is_empty() {
            self.rx_mapping.remove(&frame);
        }
        self.rebuild_routes();
        Ok(())
    }

    /// Writes a value on a provided port, routing it to every locally
    /// connected required port and/or onto the network mapping.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] when the port is not provided.
    pub fn write_port(&mut self, provider: PortId, value: Value) -> Result<()> {
        let slot = self.port_slot(provider)?;
        let runtime = &mut self.ports[slot.index()];
        if runtime.spec.direction() != PortDirection::Provided {
            return Err(DynarError::PortDirection {
                port: provider.to_string(),
                expected: "provided",
            });
        }
        self.stats.writes += 1;

        // The provider's own buffer keeps the last written value so that
        // diagnostics (and tests) can observe what a component last produced.
        runtime.buffer.push(value.clone());

        let receivers = self.local_routes[slot.index()].len();
        let has_tx = self.tx_routes[slot.index()].is_some();
        for index in 0..receivers {
            let requirer = self.local_routes[slot.index()][index];
            let last = index + 1 == receivers && !has_tx;
            if last {
                // The final receiver takes the value by move.
                Self::deliver_into(
                    &mut self.ports[requirer.index()],
                    &mut self.data_received,
                    &mut self.stats,
                    value,
                );
                self.stats.local_routes += 1;
                return Ok(());
            }
            Self::deliver_into(
                &mut self.ports[requirer.index()],
                &mut self.data_received,
                &mut self.stats,
                value.clone(),
            );
            self.stats.local_routes += 1;
        }
        if let Some(frame) = self.tx_routes[slot.index()] {
            self.outbound.push((frame, value));
            self.stats.network_routes += 1;
        } else if receivers == 0 {
            self.stats.unconnected_writes += 1;
        }
        Ok(())
    }

    /// Reads (without consuming) the current value of a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn read_port(&self, port: PortId) -> Result<Value> {
        Ok(self.ports[self.port_slot(port)?.index()].buffer.peek())
    }

    /// Reads (without consuming) the current value of a port identified by
    /// SW-C instance and port name.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] if the SW-C or port is unknown.
    pub fn read_port_by_name(&self, swc: SwcId, name: &str) -> Result<Value> {
        let id = self.port_id(swc, name)?;
        self.read_port(id)
    }

    /// Consumes the next value available on a required port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port and
    /// [`DynarError::PortDirection`] for a provided port.
    pub fn take_port(&mut self, port: PortId) -> Result<Option<Value>> {
        let slot = self.port_slot(port)?;
        let runtime = &mut self.ports[slot.index()];
        if runtime.spec.direction() != PortDirection::Required {
            return Err(DynarError::PortDirection {
                port: port.to_string(),
                expected: "required",
            });
        }
        Ok(runtime.buffer.take())
    }

    /// Number of values waiting on a port.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for an unknown port.
    pub fn pending_on(&self, port: PortId) -> Result<usize> {
        Ok(self.ports[self.port_slot(port)?.index()].buffer.pending())
    }

    /// Delivers a value arriving from the in-vehicle network for `frame`.
    ///
    /// Unknown frame ids are silently ignored, mirroring a CAN controller
    /// whose acceptance filter admitted a frame no PDU is mapped to.
    pub fn deliver_inbound(&mut self, frame: CanId, value: Value) {
        let Some(slot) = self.frame_slots.get(&frame) else {
            return;
        };
        let receivers = self.rx_routes[slot.index()].len();
        for index in 0..receivers {
            let requirer = self.rx_routes[slot.index()][index];
            if index + 1 == receivers {
                Self::deliver_into(
                    &mut self.ports[requirer.index()],
                    &mut self.data_received,
                    &mut self.stats,
                    value,
                );
                self.stats.network_deliveries += 1;
                return;
            }
            Self::deliver_into(
                &mut self.ports[requirer.index()],
                &mut self.data_received,
                &mut self.stats,
                value.clone(),
            );
            self.stats.network_deliveries += 1;
        }
    }

    /// Drains the values queued for off-ECU transmission.
    pub fn drain_outbound(&mut self) -> Vec<(CanId, Value)> {
        std::mem::take(&mut self.outbound)
    }

    /// Drains the values queued for off-ECU transmission into a caller-owned
    /// buffer.  When `into` is empty the buffers are swapped, so a caller
    /// that reuses its buffer across ticks keeps both allocations warm and
    /// the per-tick drain allocation-free.
    pub fn drain_outbound_into(&mut self, into: &mut Vec<(CanId, Value)>) {
        dynar_foundation::buffers::drain_swap(&mut self.outbound, into);
    }

    /// Drains the list of required ports that received data since the last
    /// call (used by the ECU to fire data-received triggers).
    pub fn drain_data_received(&mut self) -> Vec<PortId> {
        std::mem::take(&mut self.data_received)
    }

    /// Drains the data-received port list into a caller-owned buffer (swap
    /// when empty, append otherwise) — the allocation-free variant of
    /// [`Rte::drain_data_received`].
    pub fn drain_data_received_into(&mut self, into: &mut Vec<PortId>) {
        dynar_foundation::buffers::drain_swap(&mut self.data_received, into);
    }

    /// Recompiles the fast plane from the slow plane.  Called on every
    /// reconfiguration; signal traffic never triggers it.
    fn rebuild_routes(&mut self) {
        let width = self.port_slots.capacity();
        self.local_routes = vec![Vec::new(); width];
        self.tx_routes = vec![None; width];
        // Free the slots of frames no longer mapped so (un)map churn reuses
        // them instead of growing the dense tables.
        let stale: Vec<CanId> = self
            .frame_slots
            .iter()
            .map(|(_, frame)| *frame)
            .filter(|frame| !self.rx_mapping.contains_key(frame))
            .collect();
        for frame in &stale {
            self.frame_slots.remove(frame);
        }
        for frame in self.rx_mapping.keys() {
            self.frame_slots.intern(*frame);
        }
        self.rx_routes = vec![Vec::new(); self.frame_slots.capacity()];

        for (provider, requirers) in &self.connections {
            if let Some(provider_slot) = self.port_slots.get(provider) {
                let routes = &mut self.local_routes[provider_slot.index()];
                routes.extend(requirers.iter().filter_map(|r| self.port_slots.get(r)));
            }
        }
        for (provider, frame) in &self.tx_mapping {
            if let Some(provider_slot) = self.port_slots.get(provider) {
                self.tx_routes[provider_slot.index()] = Some(*frame);
            }
        }
        for (frame, requirers) in &self.rx_mapping {
            let frame_slot = self.frame_slots.get(frame).expect("interned above");
            let routes = &mut self.rx_routes[frame_slot.index()];
            routes.extend(requirers.iter().filter_map(|r| self.port_slots.get(r)));
        }
    }

    /// Checks that the compiled fast plane matches what a fresh compile of
    /// the slow plane would produce (used by the equivalence and property
    /// test suites; always `true` unless the rebuild discipline is broken).
    pub fn verify_compiled_routes(&self) -> bool {
        for (provider, requirers) in &self.connections {
            let Some(provider_slot) = self.port_slots.get(provider) else {
                return false;
            };
            let expected: Vec<Slot> = requirers
                .iter()
                .filter_map(|r| self.port_slots.get(r))
                .collect();
            if self.local_routes[provider_slot.index()] != expected {
                return false;
            }
        }
        let live_local: usize = self.local_routes.iter().map(Vec::len).sum();
        let declared_local: usize = self.connections.values().map(Vec::len).sum();
        if live_local != declared_local {
            return false;
        }
        for (provider, frame) in &self.tx_mapping {
            let Some(provider_slot) = self.port_slots.get(provider) else {
                return false;
            };
            if self.tx_routes[provider_slot.index()] != Some(*frame) {
                return false;
            }
        }
        if self.tx_routes.iter().flatten().count() != self.tx_mapping.len() {
            return false;
        }
        for (frame, requirers) in &self.rx_mapping {
            let Some(frame_slot) = self.frame_slots.get(frame) else {
                return false;
            };
            let expected: Vec<Slot> = requirers
                .iter()
                .filter_map(|r| self.port_slots.get(r))
                .collect();
            if self.rx_routes[frame_slot.index()] != expected {
                return false;
            }
        }
        let live_rx: usize = self.rx_routes.iter().map(Vec::len).sum();
        let declared_rx: usize = self.rx_mapping.values().map(Vec::len).sum();
        // No stale frame slots: every interned frame is still mapped.
        live_rx == declared_rx && self.frame_slots.len() == self.rx_mapping.len()
    }

    /// Pushes `value` into a receiving port's buffer: the single clone of the
    /// delivery path happens at this boundary (or not at all, when the caller
    /// moves the value in).
    fn deliver_into(
        runtime: &mut PortRuntime,
        data_received: &mut Vec<PortId>,
        stats: &mut RteStats,
        value: Value,
    ) {
        let before = runtime.buffer.overflows();
        runtime.buffer.push(value);
        if runtime.buffer.overflows() > before {
            stats.queue_overflows += 1;
        }
        data_received.push(runtime.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::SwcDescriptor;
    use crate::port::PortSpec;
    use dynar_foundation::ids::EcuId;

    fn swc(local: u16) -> SwcId {
        SwcId::new(EcuId::new(0), local)
    }

    fn simple_pair() -> (Rte, PortId, PortId) {
        let mut rte = Rte::new();
        let producer = SwcDescriptor::new("producer")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        let consumer = SwcDescriptor::new("consumer").with_port(PortSpec::queued(
            "in",
            PortDirection::Required,
            4,
        ));
        rte.register_component(swc(0), &producer).unwrap();
        rte.register_component(swc(1), &consumer).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let inp = rte.port_id(swc(1), "in").unwrap();
        rte.connect(out, inp).unwrap();
        (rte, out, inp)
    }

    #[test]
    fn local_routing_delivers_values() {
        let (mut rte, out, inp) = simple_pair();
        rte.write_port(out, Value::I64(3)).unwrap();
        assert_eq!(rte.take_port(inp).unwrap(), Some(Value::I64(3)));
        assert_eq!(rte.stats().local_routes, 1);
        assert_eq!(rte.drain_data_received(), vec![inp]);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c");
        rte.register_component(swc(0), &desc).unwrap();
        assert!(rte.register_component(swc(0), &desc).is_err());
    }

    #[test]
    fn write_on_required_port_is_rejected() {
        let (mut rte, _out, inp) = simple_pair();
        let err = rte.write_port(inp, Value::I64(1)).unwrap_err();
        assert!(matches!(err, DynarError::PortDirection { .. }));
    }

    #[test]
    fn take_on_provided_port_is_rejected() {
        let (mut rte, out, _inp) = simple_pair();
        assert!(matches!(
            rte.take_port(out).unwrap_err(),
            DynarError::PortDirection { .. }
        ));
    }

    #[test]
    fn unconnected_writes_are_counted_not_errors() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        rte.write_port(out, Value::I64(1)).unwrap();
        assert_eq!(rte.stats().unconnected_writes, 1);
        assert_eq!(rte.read_port(out).unwrap(), Value::I64(1));
    }

    #[test]
    fn network_mapping_queues_outbound_values() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let frame = CanId::new(0x101).unwrap();
        rte.map_signal_out(out, frame).unwrap();
        rte.write_port(out, Value::F64(1.5)).unwrap();
        assert_eq!(rte.drain_outbound(), vec![(frame, Value::F64(1.5))]);
        assert_eq!(rte.stats().network_routes, 1);
    }

    #[test]
    fn inbound_frames_reach_mapped_ports() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        let frame = CanId::new(0x42).unwrap();
        rte.map_signal_in(frame, inp).unwrap();
        rte.deliver_inbound(frame, Value::I64(9));
        rte.deliver_inbound(CanId::new(0x99).unwrap(), Value::I64(1));
        assert_eq!(rte.read_port(inp).unwrap(), Value::I64(9));
        assert_eq!(rte.stats().network_deliveries, 1);
    }

    #[test]
    fn mapping_direction_checks() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required))
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let frame = CanId::new(1).unwrap();
        assert!(rte.map_signal_out(inp, frame).is_err());
        assert!(rte.map_signal_in(frame, out).is_err());
    }

    #[test]
    fn queue_overflow_is_counted() {
        let mut rte = Rte::new();
        let producer = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        let consumer =
            SwcDescriptor::new("c").with_port(PortSpec::queued("in", PortDirection::Required, 1));
        rte.register_component(swc(0), &producer).unwrap();
        rte.register_component(swc(1), &consumer).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let inp = rte.port_id(swc(1), "in").unwrap();
        rte.connect(out, inp).unwrap();
        rte.write_port(out, Value::I64(1)).unwrap();
        rte.write_port(out, Value::I64(2)).unwrap();
        assert_eq!(rte.stats().queue_overflows, 1);
        assert_eq!(rte.take_port(inp).unwrap(), Some(Value::I64(2)));
    }

    #[test]
    fn one_provider_fans_out_to_many_requirers() {
        let mut rte = Rte::new();
        let producer = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &producer).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let mut ins = Vec::new();
        for i in 1..=3 {
            let consumer = SwcDescriptor::new(format!("c{i}"))
                .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
            rte.register_component(swc(i), &consumer).unwrap();
            let inp = rte.port_id(swc(i), "in").unwrap();
            rte.connect(out, inp).unwrap();
            ins.push(inp);
        }
        rte.write_port(out, Value::Text("hello".into())).unwrap();
        for inp in ins {
            assert_eq!(rte.read_port(inp).unwrap(), Value::Text("hello".into()));
        }
        assert_eq!(rte.stats().local_routes, 3);
    }

    #[test]
    fn component_ids_are_sorted() {
        let (rte, _, _) = simple_pair();
        assert_eq!(rte.component_ids(), vec![swc(0), swc(1)]);
        assert!(rte.descriptor(swc(0)).is_ok());
        assert!(rte.descriptor(swc(9)).is_err());
    }

    #[test]
    fn disconnect_removes_the_route() {
        let (mut rte, out, inp) = simple_pair();
        rte.disconnect(out, inp).unwrap();
        rte.write_port(out, Value::I64(5)).unwrap();
        assert_eq!(rte.take_port(inp).unwrap(), None);
        assert_eq!(rte.stats().unconnected_writes, 1);
        assert!(rte.disconnect(out, inp).is_err(), "already disconnected");
        assert!(rte.verify_compiled_routes());
    }

    #[test]
    fn unmap_signal_out_stops_network_routing() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided));
        rte.register_component(swc(0), &desc).unwrap();
        let out = rte.port_id(swc(0), "out").unwrap();
        let frame = CanId::new(0x101).unwrap();
        rte.map_signal_out(out, frame).unwrap();
        assert_eq!(rte.unmap_signal_out(out).unwrap(), frame);
        rte.write_port(out, Value::I64(1)).unwrap();
        assert!(rte.drain_outbound().is_empty());
        assert!(rte.unmap_signal_out(out).is_err());
        assert!(rte.verify_compiled_routes());
    }

    #[test]
    fn unmap_signal_in_stops_inbound_delivery() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        let frame = CanId::new(0x42).unwrap();
        rte.map_signal_in(frame, inp).unwrap();
        rte.unmap_signal_in(frame, inp).unwrap();
        rte.deliver_inbound(frame, Value::I64(9));
        assert_eq!(rte.stats().network_deliveries, 0);
        assert!(rte.unmap_signal_in(frame, inp).is_err());
        assert!(rte.verify_compiled_routes());
    }

    #[test]
    fn map_unmap_churn_leaves_no_stale_frame_slots() {
        let mut rte = Rte::new();
        let desc = SwcDescriptor::new("c")
            .with_port(PortSpec::sender_receiver("in", PortDirection::Required));
        rte.register_component(swc(0), &desc).unwrap();
        let inp = rte.port_id(swc(0), "in").unwrap();
        // Map and unmap a fresh frame id per cycle: freed slots must be
        // reused, not accumulated.
        for round in 0..100u32 {
            let frame = CanId::new(0x100 + round).unwrap();
            rte.map_signal_in(frame, inp).unwrap();
            assert!(rte.verify_compiled_routes());
            rte.unmap_signal_in(frame, inp).unwrap();
            assert!(rte.verify_compiled_routes());
        }
        assert_eq!(
            rte.frame_slots.capacity(),
            1,
            "100 map/unmap cycles reuse a single frame slot"
        );
    }

    #[test]
    fn reconnect_cycles_leave_no_stale_routes() {
        let (mut rte, out, inp) = simple_pair();
        for _ in 0..50 {
            rte.disconnect(out, inp).unwrap();
            rte.connect(out, inp).unwrap();
        }
        assert!(rte.verify_compiled_routes());
        rte.write_port(out, Value::I64(7)).unwrap();
        assert_eq!(
            rte.take_port(inp).unwrap(),
            Some(Value::I64(7)),
            "exactly one delivery after 50 reconnect cycles"
        );
        assert_eq!(rte.pending_on(inp).unwrap(), 0);
    }

    #[test]
    fn port_slots_are_dense_and_stable() {
        let (rte, out, inp) = simple_pair();
        let out_slot = rte.port_slot(out).unwrap();
        let inp_slot = rte.port_slot(inp).unwrap();
        assert_ne!(out_slot, inp_slot);
        assert!(out_slot.index() < 2 && inp_slot.index() < 2);
        assert!(rte.port_slot(PortId::new(swc(9), 0)).is_err());
    }
}
