//! The actor runtime: server and vehicles as independent threads on a
//! shared [`Transport`], driven by wall-clock time instead of lockstep
//! ticks.
//!
//! [`crate::fleet::Fleet`] advances the whole federation in synchronous
//! phases — every vehicle, the transport and the server move together, one
//! tick at a time.  That is the *deterministic* deployment shape: perfect
//! for byte-identity tests, useless as evidence that the protocol survives
//! real concurrency.  This module is the other shape: each vehicle runs on
//! its own thread at its own pace, the trusted server runs on its own
//! thread reacting to whatever arrives, and nothing ever waits for a global
//! tick barrier.
//!
//! # Tick-free server loop
//!
//! The server actor never sweeps on a schedule.  Each iteration it:
//!
//! 1. fires [`TrustedServer::tick`] only when [`TrustedServer::next_deadline`]
//!    says a retransmission deadline actually lapsed (the deadline timer) or
//!    a rollout campaign is active — campaign health gates sample on the tick
//!    cadence, so [`TrustedServer::step_campaigns`] runs right after,
//! 2. pumps the transport once — queued downlinks out, arrived uplinks in —
//!    exactly the sequence `Fleet::step` runs, minus the vehicle stepping,
//! 3. sleeps on its command channel until the next deadline or quantum,
//!    whichever is sooner, handling [`ActorFederation::with_server`]
//!    closures as they arrive.
//!
//! Protocol time stays tick-denominated: a [`WallClock`] maps elapsed real
//! time onto the same [`Tick`] axis the retry budgets and announce periods
//! are written in, so the reliability plane is unchanged — only the driver
//! differs.
//!
//! # Lock order and the determinism boundary
//!
//! Every thread that takes both locks takes **the transport lock first,
//! then server shard/ledger locks** (the server pump holds the transport
//! lock across `poll_downlink_dirty`, whose shard locking nests inside —
//! the same order `Fleet::step` established).  Vehicle threads only ever
//! take the transport lock (through their ECM gateways), so they can never
//! invert the order.
//!
//! Runs through this module are **not** reproducible: thread interleaving
//! and wall-clock timing are real.  Determinism lives below the
//! [`Transport`] trait — the same protocol code, driven by `Fleet` over the
//! deterministic hub, replays byte-for-byte.  Tests assert *convergence*
//! here (installed exactly once, conservation at the stats level) and
//! *identity* there.
//!
//! [`Transport`]: dynar_fes::transport::Transport

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dynar_ecm::gateway::SharedHub;
use dynar_fes::transport::{EndpointName, Payload};
use dynar_foundation::error::DynarError;
use dynar_foundation::ids::VehicleId;
use dynar_foundation::time::{Tick, WallClock};
use dynar_server::server::TrustedServer;

use crate::world::Vehicle;

/// A command for the server actor.
enum ServerCommand {
    /// Run a closure against the server (the ask pattern; the closure owns
    /// its own reply channel).
    With(Box<dyn FnOnce(&mut TrustedServer) + Send>),
    /// Route downlinks for `id` to `endpoint` and uplinks back.
    Register { id: VehicleId, endpoint: String },
    /// Stop routing for `id` (the endpoint stays registered on the
    /// transport until its ECM goes away).
    Deregister { id: VehicleId },
    /// Final pump, then exit with the server state.
    Shutdown,
}

/// One vehicle actor: its thread and the flag that stops it.
struct VehicleActor {
    id: VehicleId,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(Vehicle, Option<DynarError>)>,
}

/// What [`ActorFederation::shutdown`] hands back: the server state and every
/// vehicle, each with the error that stopped it early (if any).
#[derive(Debug)]
pub struct FederationOutcome {
    /// The trusted server, exactly as the server actor last left it.
    pub server: TrustedServer,
    /// Every vehicle in spawn order, with its first step error if it died.
    pub vehicles: Vec<(VehicleId, Vehicle, Option<DynarError>)>,
}

/// A running actor federation: one server thread, one thread per vehicle,
/// all exchanging messages through a shared [`Transport`] backend.
///
/// # Example
///
/// ```no_run
/// use std::time::Duration;
/// use dynar_ecm::gateway::SharedHub;
/// use dynar_fes::transport::{shared_transport, TransportConfig, TransportHub};
/// use dynar_server::server::TrustedServer;
/// use dynar_sim::actors::ActorFederation;
///
/// let transport: SharedHub = shared_transport(TransportHub::new(TransportConfig::default()));
/// let federation = ActorFederation::launch(
///     TrustedServer::new(),
///     "server",
///     transport,
///     Duration::from_millis(1),
/// );
/// // ... spawn vehicles, deploy through with_server, poll for convergence ...
/// let outcome = federation.shutdown();
/// assert!(outcome.vehicles.iter().all(|(_, _, err)| err.is_none()));
/// ```
///
/// [`Transport`]: dynar_fes::transport::Transport
pub struct ActorFederation {
    commands: mpsc::Sender<ServerCommand>,
    server_thread: Option<JoinHandle<TrustedServer>>,
    vehicles: Vec<VehicleActor>,
    transport: SharedHub,
    clock: WallClock,
    retry_failures: Arc<AtomicU64>,
}

impl std::fmt::Debug for VehicleActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VehicleActor")
            .field("id", &self.id)
            .finish()
    }
}

impl std::fmt::Debug for ActorFederation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorFederation")
            .field("vehicles", &self.vehicles)
            .field("quantum", &self.clock.quantum())
            .finish_non_exhaustive()
    }
}

impl ActorFederation {
    /// Spawns the server actor.  `quantum` is the real-time span of one
    /// protocol [`Tick`] — retry deadlines, announce periods and partition
    /// heal times all scale with it.
    pub fn launch(
        server: TrustedServer,
        server_endpoint: impl Into<String>,
        transport: SharedHub,
        quantum: Duration,
    ) -> Self {
        let server_endpoint = server_endpoint.into();
        transport.lock().register(&server_endpoint);
        let clock = WallClock::new(quantum);
        let retry_failures = Arc::new(AtomicU64::new(0));
        let (commands, inbox) = mpsc::channel();
        let thread = {
            let transport = Arc::clone(&transport);
            let clock = clock.clone();
            let retry_failures = Arc::clone(&retry_failures);
            std::thread::spawn(move || {
                server_actor(
                    server,
                    server_endpoint,
                    transport,
                    clock,
                    inbox,
                    retry_failures,
                )
            })
        };
        ActorFederation {
            commands,
            server_thread: Some(thread),
            vehicles: Vec::new(),
            transport,
            clock,
            retry_failures,
        }
    }

    /// The shared transport backend (for devices, settle loops, stats).
    pub fn transport(&self) -> SharedHub {
        Arc::clone(&self.transport)
    }

    /// The wall clock mapping real time onto protocol ticks.
    pub fn clock(&self) -> &WallClock {
        &self.clock
    }

    /// Retry escalations the server actor's deadline timer has surfaced so
    /// far.
    pub fn retry_failures(&self) -> u64 {
        self.retry_failures.load(Ordering::Relaxed)
    }

    /// Spawns one vehicle actor.  The vehicle's ECM must already be wired to
    /// this federation's transport under `endpoint` (its `EcmSwc::create`
    /// registered it); the server actor routes `id`'s downlinks there from
    /// now on.
    pub fn spawn_vehicle(&mut self, id: VehicleId, endpoint: impl Into<String>, vehicle: Vehicle) {
        let endpoint = endpoint.into();
        self.commands
            .send(ServerCommand::Register {
                id: id.clone(),
                endpoint,
            })
            .expect("server actor is running");
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let pace = self.clock.quantum();
            std::thread::spawn(move || vehicle_actor(vehicle, stop, pace))
        };
        self.vehicles.push(VehicleActor { id, stop, thread });
    }

    /// Runs a closure against the live server and returns its result (the
    /// ask pattern: the closure executes on the server thread, serialized
    /// with the deadline timer and the uplink pump).
    ///
    /// # Panics
    ///
    /// Panics if the server actor is gone (it never exits on its own).
    pub fn with_server<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut TrustedServer) -> R + Send + 'static,
    ) -> R {
        let (reply, answer) = mpsc::channel();
        self.commands
            .send(ServerCommand::With(Box::new(move |server| {
                let _ = reply.send(f(server));
            })))
            .expect("server actor is running");
        answer.recv().expect("server actor answers")
    }

    /// Stops one vehicle actor early (endpoint churn mid-run): its thread
    /// exits, the server stops routing to it.  Returns the vehicle and its
    /// first step error, or `None` for an unknown id.
    pub fn stop_vehicle(&mut self, id: &VehicleId) -> Option<(Vehicle, Option<DynarError>)> {
        let index = self.vehicles.iter().position(|actor| &actor.id == id)?;
        let actor = self.vehicles.remove(index);
        actor.stop.store(true, Ordering::Relaxed);
        let outcome = actor.thread.join().expect("vehicle actor never panics");
        let _ = self
            .commands
            .send(ServerCommand::Deregister { id: id.clone() });
        Some(outcome)
    }

    /// Stops every actor — vehicles first (so the wire quiesces), then the
    /// server after a final pump — and returns the federation's state.
    pub fn shutdown(mut self) -> FederationOutcome {
        for actor in &self.vehicles {
            actor.stop.store(true, Ordering::Relaxed);
        }
        let vehicles = self
            .vehicles
            .drain(..)
            .map(|actor| {
                let (vehicle, error) = actor.thread.join().expect("vehicle actor never panics");
                (actor.id, vehicle, error)
            })
            .collect();
        self.commands
            .send(ServerCommand::Shutdown)
            .expect("server actor is running");
        let server = self
            .server_thread
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("server actor never panics");
        FederationOutcome { server, vehicles }
    }
}

/// The vehicle actor body: step at the clock's pace until stopped; a step
/// error stops the vehicle (a crashed node), it does not kill the
/// federation.
fn vehicle_actor(
    mut vehicle: Vehicle,
    stop: Arc<AtomicBool>,
    pace: Duration,
) -> (Vehicle, Option<DynarError>) {
    while !stop.load(Ordering::Relaxed) {
        if let Err(error) = vehicle.step() {
            return (vehicle, Some(error));
        }
        std::thread::sleep(pace);
    }
    (vehicle, None)
}

/// The server actor body.  See the module documentation for the loop's
/// three phases and the lock order.
fn server_actor(
    mut server: TrustedServer,
    server_endpoint: String,
    transport: SharedHub,
    clock: WallClock,
    inbox: mpsc::Receiver<ServerCommand>,
    retry_failures: Arc<AtomicU64>,
) -> TrustedServer {
    let mut by_endpoint: HashMap<String, VehicleId> = HashMap::new();
    let mut endpoints: HashMap<VehicleId, String> = HashMap::new();
    let mut uplinks: Vec<(EndpointName, Payload)> = Vec::new();
    let mut offline: Vec<VehicleId> = Vec::new();
    // Wall-clock ticks are monotonic, but protocol time must also never
    // repeat a smaller value after a long pump: clamp below.
    let mut last_now = Tick::ZERO;
    loop {
        let now = clock.now().max(last_now);
        last_now = now;

        // 1. Deadline timer: sweep the reliability plane only when a
        //    retransmission deadline actually lapsed — or when a rollout
        //    campaign is running, whose health gates are sampled on the same
        //    tick cadence (the wall-clock quantum stands in for the fleet
        //    round).
        if server.next_deadline().is_some_and(|due| due <= now) || server.has_active_campaigns() {
            let failures = server.tick(now).len() as u64;
            retry_failures.fetch_add(failures, Ordering::Relaxed);
            let _ = server.step_campaigns();
        }

        // 2. Transport pump (transport lock held, shard locks nest inside).
        pump(
            &mut server,
            &server_endpoint,
            &transport,
            now,
            &by_endpoint,
            &endpoints,
            &mut uplinks,
            &mut offline,
        );

        // 3. Sleep until the next deadline or one quantum, whichever is
        //    sooner, handling commands as they arrive.
        let wait = match server.next_deadline() {
            Some(due) => clock.until_tick(due).min(clock.quantum()),
            None => clock.quantum(),
        };
        match inbox.recv_timeout(wait.max(Duration::from_micros(50))) {
            Ok(ServerCommand::With(f)) => f(&mut server),
            Ok(ServerCommand::Register { id, endpoint }) => {
                by_endpoint.insert(endpoint.clone(), id.clone());
                endpoints.insert(id, endpoint);
            }
            Ok(ServerCommand::Deregister { id }) => {
                if let Some(endpoint) = endpoints.remove(&id) {
                    by_endpoint.remove(&endpoint);
                }
            }
            Ok(ServerCommand::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Final pump: consume whatever the stopped vehicles left on the wire, so
    // the transport ledger can settle for post-run conservation checks.
    let now = clock.now().max(last_now);
    pump(
        &mut server,
        &server_endpoint,
        &transport,
        now,
        &by_endpoint,
        &endpoints,
        &mut uplinks,
        &mut offline,
    );
    server
}

/// One transport pump: downlinks out, transport stepped, dropped-destination
/// feedback applied, uplinks in.  The mirror of the transport phases of
/// [`crate::fleet::Fleet::step`], under one transport lock.
///
/// It stays a separate loop on purpose.  The fleet round is per shard (one
/// hub per server shard) and steps the vehicles between the push and the
/// uplink; the pump serves every server shard through one transport and has
/// no vehicle phase (the vehicles run on their own threads).  Sharing the
/// per-shard round would make it branch on which runtime runs it.
#[allow(clippy::too_many_arguments)]
fn pump(
    server: &mut TrustedServer,
    server_endpoint: &str,
    transport: &SharedHub,
    now: Tick,
    by_endpoint: &HashMap<String, VehicleId>,
    endpoints: &HashMap<VehicleId, String>,
    uplinks: &mut Vec<(EndpointName, Payload)>,
    offline: &mut Vec<VehicleId>,
) {
    {
        let mut transport = transport.lock();
        server.poll_downlink_dirty(|vehicle, payload| {
            let Some(endpoint) = endpoints.get(vehicle) else {
                return;
            };
            if transport.send(server_endpoint, endpoint, payload).is_err() {
                offline.push(vehicle.clone());
            }
        });
        for vehicle in offline.drain(..) {
            server.mark_offline(&vehicle);
        }
        transport.step(now);
        for endpoint in transport.take_dropped_destinations() {
            // Stale traffic towards a re-registered endpoint is not a dead
            // link (same contract as Fleet::step).
            if transport.is_registered(endpoint.as_ref()) {
                continue;
            }
            if let Some(vehicle) = by_endpoint.get(endpoint.as_ref()) {
                server.mark_offline(vehicle);
            }
        }
        debug_assert!(uplinks.is_empty());
        transport.drain_into(server_endpoint, uplinks);
    }
    for (from, payload) in uplinks.drain(..) {
        if let Some(vehicle) = by_endpoint.get(from.as_ref()) {
            let _ = server.process_uplink(vehicle, &payload);
        }
    }
}
