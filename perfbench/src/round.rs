//! One federation round, driven either through [`Fleet::step`] or rebuilt
//! from the layers' public calls with a span around each call.
//!
//! The rebuilt round makes the calls of `Fleet::step_serial`, the round of a
//! single-shard fleet, in the same order, so a traced run ends in the same
//! server, ledger and transport state as an untraced one.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use dynar_fes::transport::EndpointName;
use dynar_foundation::error::Result;
use dynar_foundation::ids::VehicleId;
use dynar_foundation::payload::Payload;
use dynar_foundation::time::Tick;
use dynar_sim::fleet::Fleet;

/// The call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole rebuilt round.
    Round,
    /// A management call into the server, between rounds.
    Manage,
    /// `TrustedServer::tick`.
    ServerTick,
    /// `poll_downlink_dirty`, with its sends as children.
    Poll,
    /// `Transport::send` of one downlink.
    Send,
    /// `mark_offline` for vehicles whose send failed.
    MarkOffline,
    /// `Transport::step`.
    TransportStep,
    /// `take_dropped_destinations` and the parking it triggers.
    Dropped,
    /// `Vehicle::step` of one vehicle.
    VehicleStep,
    /// `Transport::drain_into` of the server mailbox.
    Drain,
    /// `process_uplink` of one uplink.
    Uplink,
    /// `step_campaigns`.
    Campaigns,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::Manage => "manage",
            Layer::ServerTick => "server.tick",
            Layer::Poll => "server.poll_downlink_dirty",
            Layer::Send => "fes.send",
            Layer::MarkOffline => "server.mark_offline",
            Layer::TransportStep => "fes.step",
            Layer::Dropped => "fes.take_dropped_destinations",
            Layer::VehicleStep => "sim.vehicle_step",
            Layer::Drain => "fes.drain_into",
            Layer::Uplink => "server.process_uplink",
            Layer::Campaigns => "server.step_campaigns",
        }
    }
}

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded call: nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call covered.
    pub layer: Layer,
    /// Start, in ns since the recorder's origin.
    pub start: u64,
    /// End, in ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(capacity: usize) -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        index
    }

    /// Closes the span `index`.
    pub fn close(&mut self, index: u32) {
        let end = self.now();
        self.spans[index as usize].end = end;
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated `index name start_ns end_ns parent`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                String::from("-")
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{parent}",
                span.layer.name(),
                span.start,
                span.end
            )?;
        }
        Ok(())
    }
}

/// The fleet's vehicles in entry order, with the lookups the round needs.
#[derive(Debug, Default)]
struct Vehicles {
    ids: Vec<VehicleId>,
    endpoints: Vec<String>,
    by_id: HashMap<VehicleId, usize>,
    by_endpoint: HashMap<String, usize>,
}

/// The round rebuilt from public calls, recording a span around each.
#[derive(Debug)]
pub struct TracedRound {
    now: Tick,
    server_endpoint: String,
    vehicles: Vehicles,
    /// Spans recorded so far.
    pub spans: Spans,
    offline: Vec<VehicleId>,
    uplinks: Vec<(EndpointName, Payload)>,
}

impl TracedRound {
    /// Mirrors `fleet`, which must have one server shard.  The fleet must not
    /// gain or lose vehicles afterwards (reboots keep a vehicle's place).
    pub fn new(fleet: &Fleet, span_capacity: usize) -> Self {
        assert_eq!(
            fleet.server.shard_count(),
            1,
            "the traced round rebuilds the single-shard round"
        );
        let mut vehicles = Vehicles::default();
        for id in fleet.vehicle_ids() {
            let endpoint = fleet
                .endpoint_of(id)
                .expect("every fleet vehicle has an endpoint")
                .to_owned();
            vehicles.by_id.insert(id.clone(), vehicles.ids.len());
            vehicles
                .by_endpoint
                .insert(endpoint.clone(), vehicles.ids.len());
            vehicles.ids.push(id.clone());
            vehicles.endpoints.push(endpoint);
        }
        TracedRound {
            now: fleet.now(),
            server_endpoint: fleet.server_endpoint().to_owned(),
            vehicles,
            spans: Spans::new(span_capacity),
            offline: Vec::new(),
            uplinks: Vec::new(),
        }
    }

    /// Runs one round, the calls of `Fleet::step_serial`, and records its
    /// spans.
    ///
    /// # Errors
    ///
    /// Propagates the first vehicle step error.
    pub fn round(&mut self, fleet: &mut Fleet) -> Result<()> {
        self.now += 1;
        let root = self.spans.open(Layer::Round, ROOT);
        let result = self.calls(fleet, root);
        self.spans.close(root);
        result
    }

    fn calls(&mut self, fleet: &mut Fleet, root: u32) -> Result<()> {
        let now = self.now;
        let TracedRound {
            server_endpoint,
            vehicles,
            spans,
            offline,
            uplinks,
            ..
        } = self;
        let hub = Arc::clone(&fleet.hubs()[0]);

        let span = spans.open(Layer::ServerTick, root);
        drop(fleet.server.tick(now));
        spans.close(span);
        {
            let mut hub = hub.lock();
            let poll = spans.open(Layer::Poll, root);
            fleet.server.poll_downlink_dirty(|vehicle, payload| {
                let Some(&index) = vehicles.by_id.get(vehicle) else {
                    return;
                };
                let send = spans.open(Layer::Send, poll);
                if hub
                    .send(server_endpoint, &vehicles.endpoints[index], payload)
                    .is_err()
                {
                    offline.push(vehicle.clone());
                }
                spans.close(send);
            });
            spans.close(poll);

            let span = spans.open(Layer::MarkOffline, root);
            for vehicle in offline.drain(..) {
                fleet.server.mark_offline(&vehicle);
            }
            spans.close(span);

            let span = spans.open(Layer::TransportStep, root);
            hub.step(now);
            spans.close(span);

            let span = spans.open(Layer::Dropped, root);
            for endpoint in hub.take_dropped_destinations() {
                if hub.is_registered(endpoint.as_ref()) {
                    continue;
                }
                if let Some(&index) = vehicles.by_endpoint.get(endpoint.as_ref()) {
                    fleet.server.mark_offline(&vehicles.ids[index]);
                }
            }
            spans.close(span);
        }

        step_vehicles(fleet, vehicles, spans, root)?;

        let span = spans.open(Layer::Drain, root);
        hub.lock().drain_into(server_endpoint, uplinks);
        spans.close(span);
        for (from, payload) in uplinks.drain(..) {
            if let Some(&index) = vehicles.by_endpoint.get(from.as_ref()) {
                let span = spans.open(Layer::Uplink, root);
                let _ = fleet.server.process_uplink(&vehicles.ids[index], &payload);
                spans.close(span);
            }
        }

        let span = spans.open(Layer::Campaigns, root);
        drop(fleet.server.step_campaigns());
        spans.close(span);
        Ok(())
    }
}

/// `Vehicle::step` for every vehicle, in entry order.
fn step_vehicles(
    fleet: &mut Fleet,
    vehicles: &Vehicles,
    spans: &mut Spans,
    root: u32,
) -> Result<()> {
    for id in &vehicles.ids {
        let vehicle = fleet
            .vehicle_mut(id)
            .expect("the traced round mirrors the fleet's vehicles");
        let span = spans.open(Layer::VehicleStep, root);
        let result = vehicle.step();
        spans.close(span);
        result?;
    }
    Ok(())
}
