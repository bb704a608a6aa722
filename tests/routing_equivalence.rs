//! Equivalence suite for the compiled routing plane.
//!
//! The dense, interned route tables introduced across RTE / bus / PIRTE must
//! be *behaviour-identical* to the seed `HashMap` implementation.  Three
//! angles pin that down:
//!
//! 1. **Shadow router** — a straight reimplementation of the seed `HashMap`
//!    routing semantics is driven with the same fixed-seed random operation
//!    sequence as the real [`Rte`]; every consumed value, outbound frame and
//!    data-received notification must match byte for byte (via the value
//!    codec).
//! 2. **Golden scenarios** — the quickstart and remote-car scenarios (fixed
//!    seeds) must reproduce the exact observables recorded from the seed
//!    implementation at commit `f94aa31`: FNV-1a digests of the signal
//!    sequences, drive reports, bus and PIRTE statistics.
//! 3. **Reconfiguration properties** — random install → uninstall →
//!    reinstall churn must leave the compiled tables exactly equal to a fresh
//!    compile, with no stale slots and slot-table widths bounded by the
//!    high-water mark.

use std::collections::{HashMap, VecDeque};

use dynar::bus::frame::{CanId, Frame};
use dynar::bus::network::{Bus, BusConfig, BusStats};
use dynar::core::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar::core::message::InstallationPackage;
use dynar::core::pirte::Pirte;
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::foundation::codec::encode_value;
use dynar::foundation::ids::{AppId, EcuId, PluginId, PluginPortId, PortId, SwcId, VirtualPortId};
use dynar::foundation::time::Tick;
use dynar::foundation::value::Value;
use dynar::rte::component::SwcDescriptor;
use dynar::rte::port::{PortDirection, PortSpec};
use dynar::rte::rte::Rte;
use dynar::sim::scenario::quickstart::Quickstart;
use dynar::sim::scenario::remote_car::RemoteCarScenario;
use dynar::vm::assembler::assemble;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

// ---------------------------------------------------------------------------
// FNV-1a folding, shared by the digest checks.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *hash ^= u64::from(*byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

// ---------------------------------------------------------------------------
// 1. Shadow router: the seed HashMap semantics, reimplemented verbatim.
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum ShadowBuffer {
    LastIsBest {
        value: Value,
        updated: bool,
    },
    Queued {
        queue: VecDeque<Value>,
        capacity: usize,
    },
}

impl ShadowBuffer {
    fn push(&mut self, value: Value) {
        match self {
            ShadowBuffer::LastIsBest {
                value: slot,
                updated,
            } => {
                *slot = value;
                *updated = true;
            }
            ShadowBuffer::Queued { queue, capacity } => {
                if queue.len() == *capacity {
                    queue.pop_front();
                }
                queue.push_back(value);
            }
        }
    }

    fn take(&mut self) -> Option<Value> {
        match self {
            ShadowBuffer::LastIsBest { value, updated } => {
                if *updated {
                    *updated = false;
                    Some(value.clone())
                } else {
                    None
                }
            }
            ShadowBuffer::Queued { queue, .. } => queue.pop_front(),
        }
    }
}

/// The seed implementation's routing core: `HashMap` lookups everywhere,
/// values cloned per receiver — byte-identical observables are the contract.
#[derive(Default)]
struct ShadowRte {
    buffers: HashMap<PortId, ShadowBuffer>,
    connections: HashMap<PortId, Vec<PortId>>,
    tx_mapping: HashMap<PortId, CanId>,
    rx_mapping: HashMap<CanId, Vec<PortId>>,
    outbound: Vec<(CanId, Value)>,
    data_received: Vec<PortId>,
}

impl ShadowRte {
    fn add_port(&mut self, port: PortId, queued: Option<usize>) {
        let buffer = match queued {
            Some(capacity) => ShadowBuffer::Queued {
                queue: VecDeque::new(),
                capacity,
            },
            None => ShadowBuffer::LastIsBest {
                value: Value::Void,
                updated: false,
            },
        };
        self.buffers.insert(port, buffer);
    }

    fn write_port(&mut self, provider: PortId, value: Value) {
        self.buffers
            .get_mut(&provider)
            .expect("provider registered")
            .push(value.clone());
        let receivers = self.connections.get(&provider).cloned().unwrap_or_default();
        for requirer in receivers {
            self.deliver_local(requirer, value.clone());
        }
        if let Some(frame) = self.tx_mapping.get(&provider) {
            self.outbound.push((*frame, value));
        }
    }

    fn deliver_inbound(&mut self, frame: CanId, value: Value) {
        let receivers = self.rx_mapping.get(&frame).cloned().unwrap_or_default();
        for requirer in receivers {
            self.deliver_local(requirer, value.clone());
        }
    }

    fn deliver_local(&mut self, requirer: PortId, value: Value) {
        if let Some(buffer) = self.buffers.get_mut(&requirer) {
            buffer.push(value);
            self.data_received.push(requirer);
        }
    }

    fn take_port(&mut self, port: PortId) -> Option<Value> {
        self.buffers.get_mut(&port).and_then(ShadowBuffer::take)
    }
}

/// Drives the real RTE and the shadow through the same fixed-seed operation
/// sequence — including mid-run reconfiguration — comparing every observable.
#[test]
fn compiled_rte_matches_the_seed_hashmap_router_on_random_programs() {
    let mut rte = Rte::new();
    let mut shadow = ShadowRte::default();

    let swc = |local| SwcId::new(EcuId::new(0), local);

    // Three providers on SWC0.
    let producer = SwcDescriptor::new("producer")
        .with_port(PortSpec::sender_receiver("p0", PortDirection::Provided))
        .with_port(PortSpec::sender_receiver("p1", PortDirection::Provided))
        .with_port(PortSpec::sender_receiver("p2", PortDirection::Provided));
    rte.register_component(swc(0), &producer).unwrap();
    let providers: Vec<PortId> = (0..3)
        .map(|i| rte.port_id(swc(0), &format!("p{i}")).unwrap())
        .collect();
    for provider in &providers {
        shadow.add_port(*provider, None);
    }

    // Six consumers: alternating last-is-best and small queued ports.
    let mut requirers = Vec::new();
    for i in 1..=6u16 {
        let queued = i % 2 == 0;
        let spec = if queued {
            PortSpec::queued("in", PortDirection::Required, 2)
        } else {
            PortSpec::sender_receiver("in", PortDirection::Required)
        };
        let descriptor = SwcDescriptor::new(format!("consumer{i}")).with_port(spec);
        rte.register_component(swc(i), &descriptor).unwrap();
        let port = rte.port_id(swc(i), "in").unwrap();
        shadow.add_port(port, queued.then_some(2));
        requirers.push(port);
    }

    let frames: Vec<CanId> = (0..3u32).map(|i| CanId::new(0x200 + i).unwrap()).collect();

    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let mut connected: Vec<(PortId, PortId)> = Vec::new();
    for op in 0..4000u64 {
        match rng.gen_range_u64(0, 10) {
            // Mid-run reconfiguration: connect a random provider/requirer pair.
            0 => {
                let provider = providers[rng.gen_range_u64(0, 3) as usize];
                let requirer = requirers[rng.gen_range_u64(0, 6) as usize];
                rte.connect(provider, requirer).unwrap();
                shadow
                    .connections
                    .entry(provider)
                    .or_default()
                    .push(requirer);
                connected.push((provider, requirer));
                assert!(rte.verify_compiled_routes(), "op {op}: routes consistent");
            }
            // Mid-run reconfiguration: disconnect a previously added pair.
            1 if !connected.is_empty() => {
                let index = rng.gen_range_u64(0, connected.len() as u64) as usize;
                let (provider, requirer) = connected.swap_remove(index);
                rte.disconnect(provider, requirer).unwrap();
                let list = shadow.connections.get_mut(&provider).unwrap();
                let position = list.iter().position(|r| *r == requirer).unwrap();
                list.remove(position);
                assert!(rte.verify_compiled_routes(), "op {op}: routes consistent");
            }
            // Mid-run reconfiguration: map a frame onto a random requirer.
            2 => {
                let frame = frames[rng.gen_range_u64(0, 3) as usize];
                let requirer = requirers[rng.gen_range_u64(0, 6) as usize];
                rte.map_signal_in(frame, requirer).unwrap();
                shadow.rx_mapping.entry(frame).or_default().push(requirer);
            }
            // Mid-run reconfiguration: (re)map a provider onto a frame.
            3 => {
                let provider = providers[rng.gen_range_u64(0, 3) as usize];
                let frame = frames[rng.gen_range_u64(0, 3) as usize];
                rte.map_signal_out(provider, frame).unwrap();
                shadow.tx_mapping.insert(provider, frame);
            }
            // Signal plane: a component writes.
            4..=6 => {
                let provider = providers[rng.gen_range_u64(0, 3) as usize];
                let value = random_value(&mut rng, op);
                rte.write_port(provider, value.clone()).unwrap();
                shadow.write_port(provider, value);
            }
            // Signal plane: a frame arrives from the network.
            7..=8 => {
                let frame = frames[rng.gen_range_u64(0, 3) as usize];
                let value = random_value(&mut rng, op);
                rte.deliver_inbound(frame, value.clone());
                shadow.deliver_inbound(frame, value);
            }
            // Signal plane: a consumer takes.
            _ => {
                let port = requirers[rng.gen_range_u64(0, 6) as usize];
                let real = rte.take_port(port).unwrap();
                let expected = shadow.take_port(port);
                assert_eq!(
                    real.as_ref().map(encode_value),
                    expected.as_ref().map(encode_value),
                    "op {op}: byte-identical consumed value on {port}"
                );
            }
        }

        // Notification order and outbound traffic stay byte-identical.
        assert_eq!(
            rte.drain_data_received(),
            std::mem::take(&mut shadow.data_received),
            "op {op}: data-received order"
        );
        let real_outbound: Vec<(u32, Vec<u8>)> = rte
            .drain_outbound()
            .iter()
            .map(|(id, v)| (id.raw(), encode_value(v)))
            .collect();
        let shadow_outbound: Vec<(u32, Vec<u8>)> = std::mem::take(&mut shadow.outbound)
            .iter()
            .map(|(id, v)| (id.raw(), encode_value(v)))
            .collect();
        assert_eq!(real_outbound, shadow_outbound, "op {op}: outbound frames");
    }
    assert!(rte.verify_compiled_routes());
}

fn random_value(rng: &mut StdRng, op: u64) -> Value {
    match rng.gen_range_u64(0, 4) {
        0 => Value::I64(rng.next_u64() as i64),
        1 => Value::F64(op as f64 * 0.5),
        2 => Value::Text(format!("op-{op}")),
        _ => Value::List(vec![
            Value::I64(op as i64),
            Value::Bool(op.is_multiple_of(2)),
        ]),
    }
}

// ---------------------------------------------------------------------------
// 2. Golden scenarios: observables recorded from the seed implementation.
// ---------------------------------------------------------------------------

/// Seed observables captured at commit `f94aa31` (the pre-refactor HashMap
/// implementation) by running exactly these workloads.
mod golden {
    pub const QUICKSTART_FNV: u64 = 0xb66711b3b2dfb17b;
    pub const BUS_FNV: u64 = 0x088683c08bef62e5;
}

#[test]
fn quickstart_signal_sequence_is_byte_identical_to_the_seed() {
    let mut system = Quickstart::build().unwrap();
    let mut hash = FNV_OFFSET;
    for round in 1..=50i64 {
        system.feed_sensor(round).unwrap();
        let output = system.actuator_output().unwrap();
        assert_eq!(output, Value::I64(round * 2));
        fold(&mut hash, &encode_value(&output));
    }
    assert_eq!(
        hash,
        golden::QUICKSTART_FNV,
        "quickstart actuator sequence diverged from the seed implementation"
    );
}

#[test]
fn remote_car_drive_matches_the_seed_observables() {
    let mut scenario = RemoteCarScenario::build().unwrap();
    scenario.install_app().unwrap();
    let report = scenario.drive(300).unwrap();

    // DriveReport recorded from the seed implementation.
    assert_eq!(report.commands_sent, 60);
    assert_eq!(report.commands_delivered, 60);
    assert_eq!(report.final_speed, 14.0);
    assert_eq!(report.final_wheel_angle, -1.0);
    assert_eq!(report.odometer, 5.699999999999999);

    // Bus statistics recorded from the seed implementation.
    let bus = scenario.vehicle().bus().stats();
    assert_eq!(
        bus,
        BusStats {
            sent: 68,
            delivered: 68,
            dropped: 0,
            unrouted: 0,
            worst_latency: 1,
            payload_bytes: 2191,
        }
    );

    // PIRTE signal counters recorded from the seed implementation.
    let ecm = scenario.ecm_pirte().lock().stats();
    assert_eq!(
        (
            ecm.signals_in,
            ecm.signals_out,
            ecm.slots_granted,
            ecm.instructions_executed
        ),
        (60, 60, 306, 3179),
        "ECM PIRTE counters diverged: {ecm:?}"
    );
    let swc2 = scenario.pirte2().lock().stats();
    assert_eq!(
        (
            swc2.signals_in,
            swc2.signals_out,
            swc2.slots_granted,
            swc2.instructions_executed
        ),
        (60, 60, 304, 3159),
        "SWC2 PIRTE counters diverged: {swc2:?}"
    );
    assert!(scenario.ecm_pirte().lock().verify_compiled_routes());
    assert!(scenario.pirte2().lock().verify_compiled_routes());
}

#[test]
fn lossy_bus_delivery_sequence_is_byte_identical_to_the_seed() {
    let mut bus = Bus::new(BusConfig {
        frames_per_tick: 4,
        latency_ticks: 2,
        drop_probability: 0.3,
        seed: 42,
    });
    let a = EcuId::new(1);
    let b = EcuId::new(2);
    let c = EcuId::new(3);
    bus.attach(a);
    bus.attach(b);
    bus.attach(c);
    bus.subscribe(b, CanId::new(0x10).unwrap());
    bus.subscribe(b, CanId::new(0x11).unwrap());
    bus.subscribe(c, CanId::new(0x11).unwrap());
    bus.subscribe(c, CanId::new(0x12).unwrap());

    let mut hash = FNV_OFFSET;
    for tick in 0..200u64 {
        let now = Tick::new(tick);
        let id = 0x10 + (tick % 3) as u32;
        bus.send(
            a,
            Frame::new(CanId::new(id).unwrap(), vec![tick as u8, 1]).unwrap(),
            now,
        )
        .unwrap();
        if tick % 2 == 0 {
            bus.send(
                b,
                Frame::new(CanId::new(0x12).unwrap(), vec![tick as u8, 2]).unwrap(),
                now,
            )
            .unwrap();
        }
        bus.step(now);
        for (tag, ecu) in [(1u8, a), (2, b), (3, c)] {
            for frame in bus.receive(ecu) {
                fold(&mut hash, &[tag]);
                fold(&mut hash, &frame.id().raw().to_le_bytes());
                fold(&mut hash, frame.payload());
            }
        }
    }
    assert_eq!(
        hash,
        golden::BUS_FNV,
        "lossy bus delivery sequence diverged from the seed implementation"
    );
    assert_eq!(
        bus.stats(),
        BusStats {
            sent: 300,
            delivered: 257,
            dropped: 85,
            unrouted: 0,
            worst_latency: 2,
            payload_bytes: 600,
        }
    );
}

// ---------------------------------------------------------------------------
// 3. Reconfiguration properties: no stale slots after churn.
// ---------------------------------------------------------------------------

fn churn_pirte() -> Pirte {
    let config = PluginSwcConfig::new("churn-swc")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(0),
            "In",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "swc_in",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(1),
            "Out",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "swc_out",
        ));
    Pirte::new(EcuId::new(1), config)
}

fn churn_package(name: &str, base_port: u32, ports: u32) -> InstallationPackage {
    let binary = assemble(name, "yield\nhalt").unwrap().to_bytes();
    let mut pic = PortInitContext::new();
    let mut plc = PortLinkContext::new();
    for offset in 0..ports {
        let id = PluginPortId::new(base_port + offset);
        let provided = offset % 2 == 1;
        let direction = if provided {
            PluginPortDirection::Provided
        } else {
            PluginPortDirection::Required
        };
        pic = pic.with_port(format!("p{offset}"), id, direction);
        let link = if provided {
            LinkTarget::VirtualPort(VirtualPortId::new(1))
        } else if offset % 3 == 0 {
            LinkTarget::VirtualPort(VirtualPortId::new(0))
        } else {
            LinkTarget::Direct
        };
        plc = plc.with_link(id, link);
    }
    InstallationPackage::new(
        PluginId::new(name),
        AppId::new("churn"),
        binary,
        InstallationContext::new(pic, plc),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// install → uninstall → reinstall churn leaves the compiled route
    /// tables with no stale slots: every table entry matches a fresh compile
    /// and the dense slot width is bounded by the port high-water mark.
    #[test]
    fn pirte_reinstall_churn_leaves_no_stale_slots(
        ops in proptest::collection::vec((0u8..2, 0u8..4, 1u32..5), 1..40),
    ) {
        let mut pirte = churn_pirte();
        let mut installed: HashMap<u8, u32> = HashMap::new();
        let mut high_water = 0u32;
        for (kind, plugin_index, ports) in ops {
            let name = format!("plugin-{plugin_index}");
            match kind {
                0 => {
                    // Install with a per-plugin disjoint port-id range.
                    if let std::collections::hash_map::Entry::Vacant(entry) =
                        installed.entry(plugin_index)
                    {
                        let base = u32::from(plugin_index) * 8;
                        pirte.install(churn_package(&name, base, ports)).unwrap();
                        entry.insert(ports);
                        let live: u32 = installed.values().sum();
                        high_water = high_water.max(live);
                    }
                }
                _ => {
                    if installed.remove(&plugin_index).is_some() {
                        pirte.uninstall(&PluginId::new(&name)).unwrap();
                    }
                }
            }
            prop_assert!(
                pirte.verify_compiled_routes(),
                "compiled tables diverged after churn"
            );
        }
        // Reinstall everything once more: freed slots must be reused.
        let names: Vec<u8> = installed.keys().copied().collect();
        for plugin_index in names {
            pirte.uninstall(&PluginId::new(format!("plugin-{plugin_index}"))).unwrap();
            prop_assert!(pirte.verify_compiled_routes());
        }
        for plugin_index in 0u8..4 {
            pirte
                .install(churn_package(&format!("plugin-{plugin_index}"), u32::from(plugin_index) * 8, 2))
                .unwrap();
            prop_assert!(pirte.verify_compiled_routes());
        }
        for plugin_index in 0u8..4 {
            pirte.uninstall(&PluginId::new(format!("plugin-{plugin_index}"))).unwrap();
        }
        prop_assert!(pirte.verify_compiled_routes());
        prop_assert_eq!(pirte.plugin_count(), 0);
        let width_bound = u64::from(high_water.max(8)) as usize;
        prop_assert!(
            pirte.plugin_port_slot_capacity() <= width_bound,
            "slot table width {} exceeds high-water bound {}",
            pirte.plugin_port_slot_capacity(),
            width_bound
        );
    }

    /// Random (dis)connect and (un)map churn keeps the RTE's compiled plane
    /// equal to a fresh compile of the declarative wiring.
    #[test]
    fn rte_reconnection_churn_keeps_tables_consistent(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 1..60),
    ) {
        let mut rte = Rte::new();
        let swc = |local| SwcId::new(EcuId::new(0), local);
        let producer = SwcDescriptor::new("p")
            .with_port(PortSpec::sender_receiver("p0", PortDirection::Provided))
            .with_port(PortSpec::sender_receiver("p1", PortDirection::Provided))
            .with_port(PortSpec::sender_receiver("p2", PortDirection::Provided));
        rte.register_component(swc(0), &producer).unwrap();
        let providers: Vec<PortId> = (0..3)
            .map(|i| rte.port_id(swc(0), &format!("p{i}")).unwrap())
            .collect();
        let mut requirers = Vec::new();
        for i in 1..=3u16 {
            let descriptor = SwcDescriptor::new(format!("c{i}"))
                .with_port(PortSpec::queued("in", PortDirection::Required, 4));
            rte.register_component(swc(i), &descriptor).unwrap();
            requirers.push(rte.port_id(swc(i), "in").unwrap());
        }
        let frame = CanId::new(0x99).unwrap();
        for (kind, a, b) in ops {
            let provider = providers[usize::from(a)];
            let requirer = requirers[usize::from(b)];
            match kind {
                0 => rte.connect(provider, requirer).unwrap(),
                1 => {
                    let _ = rte.disconnect(provider, requirer);
                }
                2 => rte.map_signal_in(frame, requirer).unwrap(),
                _ => {
                    let _ = rte.unmap_signal_in(frame, requirer);
                }
            }
            prop_assert!(rte.verify_compiled_routes());
        }
    }
}
