//! One simulated electronic control unit: kernel, RTE and trigger wiring.
//!
//! The trigger/dispatch plane is wired for a steady state that allocates
//! nothing: runnable names are shared `Arc<str>`s (activating a periodic
//! runnable is a refcount bump, not a `String` clone), pending runnables
//! live in per-component vectors indexed by component slot, and the
//! data-received scan reuses scratch buffers instead of collecting fresh
//! ones every tick.

use std::collections::HashMap;
use std::sync::Arc;

use dynar_bus::frame::CanId;
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{EcuId, PortId, SwcId};
use dynar_foundation::time::{Clock, Tick};
use dynar_foundation::value::Value;
use dynar_os::kernel::Kernel;
use dynar_os::task::{TaskConfig, TaskId, TaskPriority};

use crate::component::{ComponentBehavior, RteContext, SwcDescriptor, Trigger};
use crate::rte::Rte;

/// Upper bound on dispatch rounds within one [`Ecu::step`], protecting the
/// simulation against components that endlessly re-trigger each other.
const MAX_DISPATCH_ROUNDS: usize = 64;

struct ComponentEntry {
    swc: SwcId,
    name: String,
    task: TaskId,
    behavior: Box<dyn ComponentBehavior>,
}

impl std::fmt::Debug for ComponentEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentEntry")
            .field("swc", &self.swc)
            .field("name", &self.name)
            .field("task", &self.task)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone)]
struct PeriodicRunnable {
    /// Index into `components` (and `pending_runnables`).
    component: usize,
    runnable: Arc<str>,
    period: u64,
    next_due: Tick,
}

/// One simulated ECU: an OSEK kernel, an RTE instance, the components mapped
/// onto it and the trigger wiring between them.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Ecu {
    id: EcuId,
    kernel: Kernel,
    rte: Rte,
    components: Vec<ComponentEntry>,
    component_of_task: HashMap<TaskId, usize>,
    component_of_swc: HashMap<SwcId, usize>,
    component_by_name: HashMap<String, SwcId>,
    periodic: Vec<PeriodicRunnable>,
    /// Port -> runnables it triggers, as `(component index, runnable name)`.
    data_triggers: HashMap<PortId, Vec<(usize, Arc<str>)>>,
    /// Pending runnable activations per component (indexed like
    /// `components`); drained through `dispatch_scratch` so the buffers
    /// ping-pong instead of reallocating.
    pending_runnables: Vec<Vec<Arc<str>>>,
    dispatch_scratch: Vec<Arc<str>>,
    /// Reused buffer for the data-received port scan.
    ports_scratch: Vec<PortId>,
    clock: Clock,
    started: bool,
    next_local: u16,
    behaviour_errors: Vec<(SwcId, String, DynarError)>,
}

impl Ecu {
    /// Creates an empty ECU with the given identifier.
    pub fn new(id: EcuId) -> Self {
        Ecu {
            id,
            kernel: Kernel::new(),
            rte: Rte::new(),
            components: Vec::new(),
            component_of_task: HashMap::new(),
            component_of_swc: HashMap::new(),
            component_by_name: HashMap::new(),
            periodic: Vec::new(),
            data_triggers: HashMap::new(),
            pending_runnables: Vec::new(),
            dispatch_scratch: Vec::new(),
            ports_scratch: Vec::new(),
            clock: Clock::new(),
            started: false,
            next_local: 0,
            behaviour_errors: Vec::new(),
        }
    }

    /// The ECU identifier.
    pub fn id(&self) -> EcuId {
        self.id
    }

    /// Current simulated time on this ECU.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Read access to the RTE instance.
    pub fn rte(&self) -> &Rte {
        &self.rte
    }

    /// Mutable access to the RTE instance.
    pub fn rte_mut(&mut self) -> &mut Rte {
        &mut self.rte
    }

    /// Read access to the OS kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Drains the behaviour errors recorded since the last call.
    pub fn take_behaviour_errors(&mut self) -> Vec<(SwcId, String, DynarError)> {
        std::mem::take(&mut self.behaviour_errors)
    }

    /// Registers a component instance on this ECU and wires its runnables.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-validation and registration errors.
    pub fn add_component(
        &mut self,
        descriptor: SwcDescriptor,
        behavior: Box<dyn ComponentBehavior>,
    ) -> Result<SwcId> {
        if self.component_by_name.contains_key(descriptor.name()) {
            return Err(DynarError::duplicate(
                "component instance",
                descriptor.name(),
            ));
        }
        let swc = SwcId::new(self.id, self.next_local);
        self.rte.register_component(swc, &descriptor)?;
        self.next_local += 1;

        let task = self.kernel.add_task(
            TaskConfig::new(
                format!("{}-task", descriptor.name()),
                TaskPriority::new(descriptor.priority()),
            )
            .with_max_activations(16),
        )?;

        // Stage the trigger wiring first: `component` indices must only be
        // committed once the whole descriptor resolved.
        let index = self.components.len();
        let mut staged_periodic = Vec::new();
        let mut staged_data = Vec::new();
        for runnable in descriptor.runnables() {
            match runnable.trigger() {
                Trigger::Periodic(period) => {
                    let period = (*period).max(1);
                    staged_periodic.push(PeriodicRunnable {
                        component: index,
                        runnable: Arc::from(runnable.name()),
                        period,
                        next_due: self.clock.now().advance(period),
                    });
                }
                Trigger::DataReceived(port) => {
                    let port_id = self.rte.port_id(swc, port)?;
                    staged_data.push((port_id, Arc::<str>::from(runnable.name())));
                }
                Trigger::OnDemand => {}
            }
        }
        self.periodic.append(&mut staged_periodic);
        for (port_id, runnable) in staged_data {
            self.data_triggers
                .entry(port_id)
                .or_default()
                .push((index, runnable));
        }

        self.component_of_task.insert(task, index);
        self.component_of_swc.insert(swc, index);
        self.component_by_name
            .insert(descriptor.name().to_owned(), swc);
        self.pending_runnables.push(Vec::new());
        self.components.push(ComponentEntry {
            swc,
            name: descriptor.name().to_owned(),
            task,
            behavior,
        });
        Ok(swc)
    }

    /// Looks up a component instance by name.
    pub fn component_by_name(&self, name: &str) -> Option<SwcId> {
        self.component_by_name.get(name).copied()
    }

    /// Connects a provided port of one local component to a required port of
    /// another.
    ///
    /// # Errors
    ///
    /// Propagates port-resolution and compatibility errors.
    pub fn connect_local(
        &mut self,
        provider: SwcId,
        provider_port: &str,
        requirer: SwcId,
        requirer_port: &str,
    ) -> Result<()> {
        let p = self.rte.port_id(provider, provider_port)?;
        let r = self.rte.port_id(requirer, requirer_port)?;
        self.rte.connect(p, r)
    }

    /// Maps a provided port onto an outgoing frame id.
    ///
    /// # Errors
    ///
    /// Propagates port-resolution and direction errors.
    pub fn map_signal_out(&mut self, swc: SwcId, port: &str, frame: CanId) -> Result<()> {
        let p = self.rte.port_id(swc, port)?;
        self.rte.map_signal_out(p, frame)
    }

    /// Maps an incoming frame id onto a required port.
    ///
    /// # Errors
    ///
    /// Propagates port-resolution and direction errors.
    pub fn map_signal_in(&mut self, frame: CanId, swc: SwcId, port: &str) -> Result<()> {
        let r = self.rte.port_id(swc, port)?;
        self.rte.map_signal_in(frame, r)
    }

    /// Invokes an operation on a provided client–server port of a local
    /// component, dispatching synchronously to its behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown components and propagates
    /// the behaviour's own error.
    pub fn call_operation(
        &mut self,
        server: SwcId,
        port: &str,
        operation: &str,
        argument: Value,
    ) -> Result<Value> {
        let index = *self
            .component_of_swc
            .get(&server)
            .ok_or_else(|| DynarError::not_found("software component", server))?;
        let entry = &mut self.components[index];
        let mut ctx = RteContext::new(&mut self.rte, server);
        entry
            .behavior
            .on_operation(port, operation, argument, &mut ctx)
    }

    /// Explicitly executes an on-demand runnable of a component.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::NotFound`] for unknown components and propagates
    /// the behaviour's own error.
    pub fn trigger_runnable(&mut self, swc: SwcId, runnable: &str) -> Result<()> {
        let index = *self
            .component_of_swc
            .get(&swc)
            .ok_or_else(|| DynarError::not_found("software component", swc))?;
        let entry = &mut self.components[index];
        let mut ctx = RteContext::new(&mut self.rte, swc);
        entry.behavior.on_runnable(runnable, &mut ctx)
    }

    /// Delivers a value arriving from the in-vehicle network; the matching
    /// data-received triggers fire on the next [`Ecu::step`].
    pub fn deliver_inbound(&mut self, frame: CanId, value: Value) {
        self.rte.deliver_inbound(frame, value);
    }

    /// Drains the values queued by this ECU for off-ECU transmission.
    pub fn drain_outbound(&mut self) -> Vec<(CanId, Value)> {
        self.rte.drain_outbound()
    }

    /// Drains the outbound values into a caller-owned buffer — the
    /// allocation-free variant of [`Ecu::drain_outbound`] for per-tick
    /// callers.
    pub fn drain_outbound_into(&mut self, into: &mut Vec<(CanId, Value)>) {
        self.rte.drain_outbound_into(into);
    }

    /// Advances the ECU by one tick: start-up on the first call, periodic
    /// trigger evaluation, data-received trigger evaluation and dispatching
    /// of all activated tasks.
    ///
    /// Behaviour errors are retrievable through
    /// [`Ecu::take_behaviour_errors`]; they do not abort the step.
    ///
    /// # Errors
    ///
    /// Currently always returns `Ok`; the `Result` return type leaves room
    /// for platform-level failures such as kernel exhaustion.
    pub fn step(&mut self) -> Result<()> {
        if !self.started {
            self.started = true;
            for index in 0..self.components.len() {
                let swc = self.components[index].swc;
                let entry = &mut self.components[index];
                let mut ctx = RteContext::new(&mut self.rte, swc);
                if let Err(err) = entry.behavior.on_start(&mut ctx) {
                    self.behaviour_errors
                        .push((swc, "on_start".to_owned(), err));
                }
            }
        }

        let now = self.clock.step();
        self.kernel.advance(now);

        // Periodic triggers: activating a runnable clones an `Arc<str>` into
        // the component's pending vector — no `String` allocation per tick.
        for periodic in &mut self.periodic {
            if periodic.next_due <= now {
                periodic.next_due = periodic.next_due.advance(periodic.period);
                self.pending_runnables[periodic.component].push(Arc::clone(&periodic.runnable));
                let _ = self
                    .kernel
                    .activate(self.components[periodic.component].task);
            }
        }

        self.collect_data_triggers();

        // Dispatch until no task is ready (bounded to avoid livelock).
        for _ in 0..MAX_DISPATCH_ROUNDS {
            let Some(task) = self.kernel.schedule() else {
                break;
            };
            let Some(&index) = self.component_of_task.get(&task) else {
                // A task not owned by any component (user-created); nothing to run.
                self.kernel.terminate(task)?;
                continue;
            };
            let swc = self.components[index].swc;
            // Drain the component's pending runnables through the scratch
            // buffer: the two vectors ping-pong, so neither reallocates in
            // steady state (a runnable may re-trigger its own component; the
            // fresh activations land in the now-empty pending vector exactly
            // as the old remove-then-run flow did).
            let mut scratch = std::mem::take(&mut self.dispatch_scratch);
            debug_assert!(scratch.is_empty());
            std::mem::swap(&mut scratch, &mut self.pending_runnables[index]);
            for runnable in scratch.drain(..) {
                let result = {
                    let entry = &mut self.components[index];
                    let mut ctx = RteContext::new(&mut self.rte, swc);
                    entry.behavior.on_runnable(&runnable, &mut ctx)
                };
                if let Err(err) = result {
                    self.behaviour_errors
                        .push((swc, runnable.as_ref().to_owned(), err));
                }
            }
            self.dispatch_scratch = scratch;
            self.kernel.terminate(task)?;
            // Runnables may have produced data for other local components.
            self.collect_data_triggers();
        }
        Ok(())
    }

    /// Runs [`Ecu::step`] `ticks` times.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    pub fn run(&mut self, ticks: u64) -> Result<()> {
        for _ in 0..ticks {
            self.step()?;
        }
        Ok(())
    }

    fn collect_data_triggers(&mut self) {
        debug_assert!(self.ports_scratch.is_empty());
        self.rte.drain_data_received_into(&mut self.ports_scratch);
        for i in 0..self.ports_scratch.len() {
            let port = self.ports_scratch[i];
            let Some(triggers) = self.data_triggers.get(&port) else {
                continue;
            };
            for (component, runnable) in triggers {
                let pending = &mut self.pending_runnables[*component];
                if !pending.iter().any(|r| **r == **runnable) {
                    pending.push(Arc::clone(runnable));
                }
                let _ = self.kernel.activate(self.components[*component].task);
            }
        }
        self.ports_scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{RunnableSpec, SwcDescriptor, Trigger};
    use crate::port::{PortDirection, PortSpec};

    struct Counter {
        writes: i64,
    }

    impl ComponentBehavior for Counter {
        fn on_runnable(&mut self, _r: &str, ctx: &mut RteContext<'_>) -> Result<()> {
            self.writes += 1;
            ctx.write("out", Value::I64(self.writes))
        }
    }

    struct Echo;

    impl ComponentBehavior for Echo {
        fn on_runnable(&mut self, _r: &str, ctx: &mut RteContext<'_>) -> Result<()> {
            if let Some(value) = ctx.receive("in")? {
                ctx.write("out", value)?;
            }
            Ok(())
        }
    }

    struct Silent;

    impl ComponentBehavior for Silent {
        fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
            Ok(())
        }
    }

    fn counter_descriptor(period: u64) -> SwcDescriptor {
        SwcDescriptor::new("counter")
            .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
            .with_runnable(RunnableSpec::new("tick", Trigger::Periodic(period)))
    }

    #[test]
    fn periodic_runnable_fires_at_its_period() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(counter_descriptor(10), Box::new(Counter { writes: 0 }))
            .unwrap();
        ecu.run(35).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(counter, "out").unwrap(),
            Value::I64(3),
            "3 periods fit in 35 ticks"
        );
    }

    #[test]
    fn data_received_trigger_chains_components() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(counter_descriptor(5), Box::new(Counter { writes: 0 }))
            .unwrap();
        let echo = ecu
            .add_component(
                SwcDescriptor::new("echo")
                    .with_port(PortSpec::queued("in", PortDirection::Required, 8))
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                    .with_runnable(RunnableSpec::new("fwd", Trigger::DataReceived("in".into()))),
                Box::new(Echo),
            )
            .unwrap();
        ecu.connect_local(counter, "out", echo, "in").unwrap();
        ecu.run(6).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(echo, "out").unwrap(),
            Value::I64(1),
            "echo forwarded in the same step the counter produced"
        );
    }

    #[test]
    fn duplicate_component_names_are_rejected() {
        let mut ecu = Ecu::new(EcuId::new(1));
        ecu.add_component(SwcDescriptor::new("x"), Box::new(Silent))
            .unwrap();
        assert!(ecu
            .add_component(SwcDescriptor::new("x"), Box::new(Silent))
            .is_err());
    }

    #[test]
    fn behaviour_errors_are_recorded_not_fatal() {
        struct Failing;
        impl ComponentBehavior for Failing {
            fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
                Err(DynarError::VmFault("boom".into()))
            }
        }
        let mut ecu = Ecu::new(EcuId::new(1));
        ecu.add_component(
            SwcDescriptor::new("failing")
                .with_runnable(RunnableSpec::new("r", Trigger::Periodic(1))),
            Box::new(Failing),
        )
        .unwrap();
        ecu.run(3).unwrap();
        let errors = ecu.take_behaviour_errors();
        assert_eq!(errors.len(), 3);
        assert!(ecu.take_behaviour_errors().is_empty(), "drained");
    }

    #[test]
    fn inbound_frames_trigger_data_received_runnables() {
        let mut ecu = Ecu::new(EcuId::new(2));
        let echo = ecu
            .add_component(
                SwcDescriptor::new("echo")
                    .with_port(PortSpec::queued("in", PortDirection::Required, 8))
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                    .with_runnable(RunnableSpec::new("fwd", Trigger::DataReceived("in".into()))),
                Box::new(Echo),
            )
            .unwrap();
        let frame = CanId::new(0x77).unwrap();
        ecu.map_signal_in(frame, echo, "in").unwrap();
        ecu.deliver_inbound(frame, Value::Text("ping".into()));
        ecu.step().unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(echo, "out").unwrap(),
            Value::Text("ping".into())
        );
    }

    #[test]
    fn outbound_mapping_collects_signals() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(counter_descriptor(1), Box::new(Counter { writes: 0 }))
            .unwrap();
        let frame = CanId::new(0x55).unwrap();
        ecu.map_signal_out(counter, "out", frame).unwrap();
        ecu.run(3).unwrap();
        let outbound = ecu.drain_outbound();
        assert_eq!(outbound.len(), 3);
        assert!(outbound.iter().all(|(id, _)| *id == frame));
    }

    #[test]
    fn on_start_runs_once() {
        struct Starter {
            starts: i64,
        }
        impl ComponentBehavior for Starter {
            fn on_start(&mut self, ctx: &mut RteContext<'_>) -> Result<()> {
                self.starts += 1;
                ctx.write("out", Value::I64(self.starts))
            }
            fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
                Ok(())
            }
        }
        let mut ecu = Ecu::new(EcuId::new(1));
        let swc = ecu
            .add_component(
                SwcDescriptor::new("starter")
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided)),
                Box::new(Starter { starts: 0 }),
            )
            .unwrap();
        ecu.run(5).unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(swc, "out").unwrap(),
            Value::I64(1)
        );
    }

    #[test]
    fn call_operation_dispatches_to_behaviour() {
        struct Server;
        impl ComponentBehavior for Server {
            fn on_runnable(&mut self, _r: &str, _ctx: &mut RteContext<'_>) -> Result<()> {
                Ok(())
            }
            fn on_operation(
                &mut self,
                port: &str,
                operation: &str,
                argument: Value,
                _ctx: &mut RteContext<'_>,
            ) -> Result<Value> {
                assert_eq!(port, "diag");
                match operation {
                    "double" => Ok(Value::I64(argument.expect_i64()? * 2)),
                    other => Err(DynarError::not_found("operation", other)),
                }
            }
        }
        let mut ecu = Ecu::new(EcuId::new(1));
        let server = ecu
            .add_component(
                SwcDescriptor::new("server").with_port(PortSpec::client_server(
                    "diag",
                    PortDirection::Provided,
                    ["double"],
                )),
                Box::new(Server),
            )
            .unwrap();
        assert_eq!(
            ecu.call_operation(server, "diag", "double", Value::I64(21))
                .unwrap(),
            Value::I64(42)
        );
        assert!(ecu
            .call_operation(server, "diag", "halve", Value::I64(2))
            .is_err());
    }

    #[test]
    fn trigger_runnable_runs_on_demand() {
        let mut ecu = Ecu::new(EcuId::new(1));
        let counter = ecu
            .add_component(
                SwcDescriptor::new("ondemand")
                    .with_port(PortSpec::sender_receiver("out", PortDirection::Provided))
                    .with_runnable(RunnableSpec::new("once", Trigger::OnDemand)),
                Box::new(Counter { writes: 0 }),
            )
            .unwrap();
        ecu.run(10).unwrap();
        assert!(ecu
            .rte()
            .read_port_by_name(counter, "out")
            .unwrap()
            .is_void());
        ecu.trigger_runnable(counter, "once").unwrap();
        assert_eq!(
            ecu.rte().read_port_by_name(counter, "out").unwrap(),
            Value::I64(1)
        );
    }

    #[test]
    fn component_lookup_by_name() {
        let mut ecu = Ecu::new(EcuId::new(3));
        let swc = ecu
            .add_component(SwcDescriptor::new("abc"), Box::new(Silent))
            .unwrap();
        assert_eq!(ecu.component_by_name("abc"), Some(swc));
        assert_eq!(ecu.component_by_name("zzz"), None);
        assert_eq!(ecu.id(), EcuId::new(3));
    }
}
