//! The fleet benchmark: runs one workload, checks its outputs, and prints
//! every metric by name and unit, ending with one JSON line.
//!
//! ```text
//! perfbench --workload <steady_drive|mgmt_churn|lossy_rollout> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--spans-out <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the untraced round for
//! `--seconds`.  `--trace 1` runs the exact window twice from the same
//! set-up, once through `Fleet::step` and once through the round rebuilt
//! with spans, checks that both end in byte-identical server, ledger and
//! transport state, and reports the per-layer metrics.  `--smoke` shrinks
//! the fleets for the benchmark's own tests.

mod alloc;
mod drive;
mod round;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::time::Duration;

use crate::round::{Layer, Span, ROOT};
use crate::stats::{median, tail};
use crate::workloads::{settled_ops, Mode, Outcome, Plan, Workload};

#[global_allocator]
static ALLOCATOR: alloc::ByteCountingAllocator = alloc::ByteCountingAllocator;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        spans_out,
    })
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name, value, unit));
    }

    fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit) in &self.entries {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (index, (name, value, unit)) in self.entries.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

fn ms(nanos: f64) -> f64 {
    nanos * 1e-6
}

fn nanos(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64).collect()
}

/// The end-to-end metrics of an untraced run, and the workload-specific
/// ones printed beside them.
fn end_to_end(workload: Workload, outcome: &Outcome) -> (Metrics, Metrics) {
    let operator = &outcome.operator;
    let round_ns = nanos(&operator.round_ns);
    let round_total: f64 = round_ns.iter().sum();
    let host_total = round_total + operator.manage_ns as f64;
    let rounds = round_ns.len() as f64;

    let mut gated = Metrics::default();
    gated.put("setup_s", median(&outcome.setup_s), "s");
    gated.put(
        "vehicle_rounds_per_s",
        outcome.vehicles as f64 * rounds / (round_total * 1e-9),
        "1/s",
    );
    gated.put("round_p50_ms", ms(median(&round_ns)), "ms");
    gated.put("round_p99_ms", ms(tail(&round_ns).0), "ms");
    gated.put("loop_ms_per_round", ms(host_total / rounds), "ms");
    gated.put(
        "heap_kib_per_vehicle",
        outcome.heap_bytes_per_vehicle / 1024.0,
        "KiB",
    );
    gated.put("peak_rss_mib", outcome.window.peak_rss_mib, "MiB");

    let window = &outcome.window;
    let (ledger0, ledger1) = &window.ledger;
    let completed = settled_ops(ledger1) - settled_ops(ledger0);
    let failed = ledger1.operations_failed - ledger0.operations_failed;
    let settle: Vec<f64> = window.settle_rounds.iter().map(|&r| r as f64).collect();
    let mut side = Metrics::default();
    if workload != Workload::SteadyDrive {
        side.put("ops_per_s", outcome.ops as f64 / (host_total * 1e-9), "1/s");
        side.put("op_settle_p50_rounds", median(&settle), "rounds");
        side.put("op_settle_p99_rounds", tail(&settle).0, "rounds");
    }
    if workload == Workload::LossyRollout {
        side.put(
            "rollout_rounds",
            window.cycle_rounds.iter().sum::<u64>() as f64 / window.cycles as f64,
            "rounds",
        );
        side.put("rollout_s", median(&outcome.cycle_s), "s");
        side.put(
            "exposed_before_abort",
            window.exposed_before_abort.iter().sum::<u64>() as f64
                / window.exposed_before_abort.len().max(1) as f64,
            "vehicles",
        );
    }
    side.put(
        "failed_ops_ratio",
        failed as f64 / (completed + failed).max(1) as f64,
        "ratio",
    );
    (gated, side)
}

/// Sums of span durations by layer, and the round's unattributed time.
struct SpanTotals {
    rounds: f64,
    by_layer: Vec<(Layer, f64, u64)>,
    poll_self_ns: f64,
    unattributed_ns: f64,
    vehicle_step_ns: Vec<f64>,
}

impl SpanTotals {
    fn of(spans: &[Span]) -> SpanTotals {
        let mut by_layer: Vec<(Layer, f64, u64)> = Vec::new();
        let mut children_ns = vec![0.0f64; spans.len()];
        let mut vehicle_step_ns = Vec::new();
        let mut rounds = 0.0;
        for span in spans {
            let ns = span.nanos() as f64;
            match by_layer
                .iter_mut()
                .find(|(layer, _, _)| *layer == span.layer)
            {
                Some(entry) => {
                    entry.1 += ns;
                    entry.2 += 1;
                }
                None => by_layer.push((span.layer, ns, 1)),
            }
            if span.parent != ROOT {
                children_ns[span.parent as usize] += ns;
            }
            match span.layer {
                Layer::Round => rounds += 1.0,
                Layer::VehicleStep => vehicle_step_ns.push(ns),
                _ => {}
            }
        }
        let mut poll_self_ns = 0.0;
        let mut unattributed_ns = 0.0;
        for (span, children) in spans.iter().zip(&children_ns) {
            let own = span.nanos() as f64 - children;
            match span.layer {
                Layer::Poll => poll_self_ns += own,
                Layer::Round => unattributed_ns += own,
                _ => {}
            }
        }
        SpanTotals {
            rounds,
            by_layer,
            poll_self_ns,
            unattributed_ns,
            vehicle_step_ns,
        }
    }

    fn total_ns(&self, layer: Layer) -> f64 {
        self.entry(layer).0
    }

    fn mean_ns(&self, layer: Layer) -> f64 {
        let (total, count) = self.entry(layer);
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    fn entry(&self, layer: Layer) -> (f64, u64) {
        self.by_layer
            .iter()
            .find(|(l, _, _)| *l == layer)
            .map_or((0.0, 0), |&(_, total, count)| (total, count))
    }
}

/// The per-layer metrics of a traced run against its untraced reference.
fn per_layer(traced: &Outcome, reference: &Outcome) -> Metrics {
    let spans = traced
        .operator
        .traced_round()
        .expect("a traced outcome has spans")
        .spans
        .all();
    let totals = SpanTotals::of(spans);
    let rounds = totals.rounds.max(1.0);
    let window = &traced.window;
    let (ledger0, ledger1) = &window.ledger;
    let (transport0, transport1) = &window.transport;
    let ops = (settled_ops(ledger1) - settled_ops(ledger0)) as f64;
    let per_op = |count: u64| if ops > 0.0 { count as f64 / ops } else { 0.0 };
    let sent = transport1.sent - transport0.sent;
    let delivered = transport1.delivered - transport0.delivered;
    let (counts0, counts1) = &window.counts;
    let counts = counts1.since(counts0);
    let vehicle_rounds = (traced.vehicles as f64 * window.rounds as f64).max(1.0);
    let per_vr = |count: u64| count as f64 / vehicle_rounds;

    let traced_round_ns = totals.total_ns(Layer::Round) / rounds;
    let reference_ns = nanos(&reference.operator.round_ns);
    let reference_round_ns = reference_ns.iter().sum::<f64>() / reference_ns.len().max(1) as f64;
    let overhead_ns = traced_round_ns - reference_round_ns;

    let mut m = Metrics::default();
    m.put(
        "server.tick_ms",
        ms(totals.total_ns(Layer::ServerTick) / rounds),
        "ms",
    );
    m.put("server.poll_ms", ms(totals.poll_self_ns / rounds), "ms");
    m.put(
        "server.uplink_us",
        totals.mean_ns(Layer::Uplink) * 1e-3,
        "us",
    );
    m.put(
        "server.manage_us",
        totals.mean_ns(Layer::Manage) * 1e-3,
        "us",
    );
    m.put(
        "server.campaigns_ms",
        ms(totals.total_ns(Layer::Campaigns) / rounds),
        "ms",
    );
    m.put(
        "server.retransmissions_per_op",
        per_op(ledger1.retransmissions - ledger0.retransmissions),
        "count",
    );
    m.put(
        "server.resyncs",
        (ledger1.resyncs - ledger0.resyncs) as f64,
        "count",
    );
    m.put(
        "server.journal_bytes_per_op",
        per_op(window.journal_bytes),
        "B",
    );
    m.put("fes.send_us", totals.mean_ns(Layer::Send) * 1e-3, "us");
    m.put(
        "fes.step_ms",
        ms(totals.total_ns(Layer::TransportStep) / rounds),
        "ms",
    );
    m.put(
        "fes.drain_ms",
        ms(totals.total_ns(Layer::Drain) / rounds),
        "ms",
    );
    m.put("fes.messages_per_op", per_op(sent), "count");
    m.put(
        "fes.delivered_ratio",
        if sent == 0 {
            1.0
        } else {
            delivered as f64 / sent as f64
        },
        "ratio",
    );
    m.put(
        "sim.vehicle_step_p50_us",
        median(&totals.vehicle_step_ns) * 1e-3,
        "us",
    );
    m.put(
        "sim.vehicle_step_p99_us",
        tail(&totals.vehicle_step_ns).0 * 1e-3,
        "us",
    );
    m.put(
        "sim.unattributed_ms",
        ms(totals.unattributed_ns / rounds),
        "ms",
    );
    m.put("sim.traced_round_ms", ms(traced_round_ns), "ms");
    m.put("sim.untraced_round_ms", ms(reference_round_ns), "ms");
    m.put("sim.tracing_overhead_ms", ms(overhead_ns), "ms");
    m.put(
        "sim.tracing_overhead_pct",
        100.0 * overhead_ns / reference_round_ns,
        "%",
    );
    m.put("os.dispatches", per_vr(counts.os_dispatches), "count");
    m.put(
        "os.alarm_expirations",
        per_vr(counts.os_alarm_expirations),
        "count",
    );
    m.put("rte.writes", per_vr(counts.rte_writes), "count");
    m.put(
        "rte.network_routes",
        per_vr(counts.rte_network_routes),
        "count",
    );
    m.put(
        "bus.frames_delivered",
        per_vr(counts.bus_frames_delivered),
        "count",
    );
    m.put("bus.payload_bytes", per_vr(counts.bus_payload_bytes), "B");
    m.put(
        "core.slots_granted",
        per_vr(counts.core_slots_granted),
        "count",
    );
    m.put(
        "core.vm_instructions",
        per_vr(counts.core_vm_instructions),
        "count",
    );
    m.put("core.installs", per_vr(counts.core_installs), "count");
    m.put("core.reinstalls", per_vr(counts.core_reinstalls), "count");
    m.put(
        "core.rejected_operations",
        per_vr(counts.core_rejected_operations),
        "count",
    );
    m.put(
        "vm.fused_ratio",
        if counts1.core_vm_instructions == 0 {
            0.0
        } else {
            counts1.vm_fused as f64 / counts1.core_vm_instructions as f64
        },
        "ratio",
    );
    m.put(
        "alloc.per_round",
        reference.window.allocations as f64 / reference.window.rounds.max(1) as f64,
        "count",
    );
    m
}

/// Checks and counts shared by both modes: `(attempted, failed)`.
fn tally(outcome: &Outcome) -> (u64, u64) {
    let operator = &outcome.operator;
    let attempted = operator.round_ns.len() as u64 + operator.manage_calls;
    (
        attempted,
        operator.checks.failed + outcome.setup_checks.failed,
    )
}

fn report_failures(outcome: &Outcome) {
    for failure in outcome
        .setup_checks
        .failures
        .iter()
        .chain(&outcome.operator.checks.failures)
    {
        println!("CHECK FAILED: {failure}");
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.smoke);
    println!(
        "workload {:?}: {} vehicles, seed {}, smoke {}",
        args.workload, plan.vehicles, args.seed, args.smoke
    );

    if !args.trace {
        let seconds = Duration::from_secs(args.seconds);
        let outcome = workloads::run(args.workload, &plan, args.seed, Mode::Timed(seconds));
        report_failures(&outcome);
        let (gated, side) = end_to_end(args.workload, &outcome);
        let operator = &outcome.operator;
        println!(
            "samples: {} rounds, {} management calls, {} settled ops, {} set-ups, {} checks passed",
            operator.round_ns.len(),
            operator.manage_calls,
            outcome.ops,
            outcome.setup_s.len(),
            operator.checks.passed + outcome.setup_checks.passed
        );
        println!(
            "exact window: {} cycles, {} rounds, {} settle samples",
            outcome.window.cycles,
            outcome.window.rounds,
            outcome.window.settle_rounds.len()
        );
        gated.print("end-to-end metrics:");
        side.print("workload metrics:");
        let (attempted, failed) = tally(&outcome);
        print_result(failed == 0, attempted, failed, &gated);
        return;
    }

    let reference = workloads::run(args.workload, &plan, args.seed, Mode::Reference);
    let traced = workloads::run(args.workload, &plan, args.seed, Mode::Traced);
    report_failures(&reference);
    report_failures(&traced);
    let end = (&reference.window.end, &traced.window.end);
    let equivalent = end.0 == end.1;
    println!(
        "traced-run equivalence: snapshot_bytes {}, ledger {}, transport {} ({} snapshot bytes)",
        verdict(end.0.snapshot == end.1.snapshot),
        verdict(end.0.ledger == end.1.ledger),
        verdict(end.0.transport == end.1.transport),
        end.1.snapshot.len()
    );
    if let Some(path) = &args.spans_out {
        let spans = &traced.operator.traced_round().expect("traced").spans;
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut out| {
                spans.write_tsv(&mut out)?;
                std::io::Write::flush(&mut out)
            });
        match written {
            Ok(()) => println!("spans: {} written to {path}", spans.all().len()),
            Err(error) => println!("spans: could not write {path}: {error}"),
        }
    }
    let metrics = per_layer(&traced, &reference);
    metrics.print("per-layer metrics (traced run):");
    let (ref_attempted, ref_failed) = tally(&reference);
    let (attempted, failed) = tally(&traced);
    let failed = ref_failed + failed + u64::from(!equivalent);
    print_result(failed == 0, ref_attempted + attempted, failed, &metrics);
}

fn verdict(same: bool) -> &'static str {
    if same {
        "identical"
    } else {
        "DIFFERENT"
    }
}
