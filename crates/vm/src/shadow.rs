//! Shadow execution: the fast plane proven against the reference engine.
//!
//! A [`ShadowVm`] runs every slot twice — once on the compiled fast plane
//! against the real [`PortHost`] (so effects happen exactly once), recording
//! every host interaction, and once on the reference interpreter against a
//! replay of that recording.  After each slot it asserts that both engines
//! produced identical observables: the slot report, status, program
//! counter, stack, locals, incremental memory footprint and lifetime
//! instruction counts, plus the exact sequence of port reads/takes/writes
//! and log lines.  Any divergence panics with a diagnostic naming the
//! program and the mismatching field — the `routing_equivalence`-style
//! proof, applied to the execution plane by the equivalence tests.

use dynar_foundation::error::Result;
use dynar_foundation::value::Value;

use crate::budget::Budget;
use crate::compiled::{CompiledVm, FusionCounters};
use crate::interpreter::{PortHost, SlotReport, Vm, VmStatus};
use crate::program::Program;

/// One recorded host interaction (call arguments plus the host's answer).
#[derive(Debug, Clone)]
enum HostEvent {
    Read(u32, Result<Value>),
    Take(u32, Result<Value>),
    Write(u32, Value, Result<()>),
    Pending(u32, Result<usize>),
    Log(String),
}

/// Bit-exact value identity: like `PartialEq` but `F64` compares by bit
/// pattern, so `NaN` results do not read as a (spurious) divergence and
/// `-0.0` vs `0.0` *does*.
fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| values_identical(a, b))
        }
        _ => a == b,
    }
}

fn slices_identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| values_identical(a, b))
}

/// Forwards to the real host and records every interaction.
struct RecordingHost<'a> {
    inner: &'a mut dyn PortHost,
    events: &'a mut Vec<HostEvent>,
}

impl PortHost for RecordingHost<'_> {
    fn read_port(&mut self, slot: u32) -> Result<Value> {
        let result = self.inner.read_port(slot);
        self.events.push(HostEvent::Read(slot, result.clone()));
        result
    }
    fn take_port(&mut self, slot: u32) -> Result<Value> {
        let result = self.inner.take_port(slot);
        self.events.push(HostEvent::Take(slot, result.clone()));
        result
    }
    fn write_port(&mut self, slot: u32, value: Value) -> Result<()> {
        let result = self.inner.write_port(slot, value.clone());
        self.events
            .push(HostEvent::Write(slot, value, result.clone()));
        result
    }
    fn pending(&mut self, slot: u32) -> Result<usize> {
        let result = self.inner.pending(slot);
        self.events.push(HostEvent::Pending(slot, result.clone()));
        result
    }
    fn log(&mut self, message: &str) {
        self.inner.log(message);
        self.events.push(HostEvent::Log(message.to_owned()));
    }
}

/// Replays a recording to the reference engine, asserting it performs the
/// same calls with the same arguments in the same order.
struct ReplayHost<'a> {
    program: &'a str,
    events: &'a [HostEvent],
    cursor: usize,
}

impl ReplayHost<'_> {
    fn next(&mut self, call: &str) -> &HostEvent {
        let Some(event) = self.events.get(self.cursor) else {
            panic!(
                "shadow divergence in '{}': reference engine issued an extra \
                 host call {call} (fast plane made {} calls)",
                self.program,
                self.events.len()
            );
        };
        self.cursor += 1;
        event
    }

    fn diverged(&self, call: &str, event: &HostEvent) -> ! {
        panic!(
            "shadow divergence in '{}': reference engine host call #{} was \
             {call}, but the fast plane recorded {event:?}",
            self.program, self.cursor
        );
    }
}

impl PortHost for ReplayHost<'_> {
    fn read_port(&mut self, slot: u32) -> Result<Value> {
        match self.next("read_port") {
            HostEvent::Read(s, result) if *s == slot => result.clone(),
            other => {
                let other = other.clone();
                self.diverged(&format!("read_port({slot})"), &other)
            }
        }
    }
    fn take_port(&mut self, slot: u32) -> Result<Value> {
        match self.next("take_port") {
            HostEvent::Take(s, result) if *s == slot => result.clone(),
            other => {
                let other = other.clone();
                self.diverged(&format!("take_port({slot})"), &other)
            }
        }
    }
    fn write_port(&mut self, slot: u32, value: Value) -> Result<()> {
        match self.next("write_port") {
            HostEvent::Write(s, v, result) if *s == slot && values_identical(v, &value) => {
                result.clone()
            }
            other => {
                let other = other.clone();
                self.diverged(&format!("write_port({slot}, {value:?})"), &other)
            }
        }
    }
    fn pending(&mut self, slot: u32) -> Result<usize> {
        match self.next("pending") {
            HostEvent::Pending(s, result) if *s == slot => result.clone(),
            other => {
                let other = other.clone();
                self.diverged(&format!("pending({slot})"), &other)
            }
        }
    }
    fn log(&mut self, message: &str) {
        match self.next("log") {
            HostEvent::Log(m) if m == message => {}
            other => {
                let other = other.clone();
                self.diverged(&format!("log({message:?})"), &other)
            }
        }
    }
}

/// Both execution planes in lock-step, asserting observable equivalence
/// after every slot.
#[derive(Debug, Clone)]
pub struct ShadowVm {
    fast: CompiledVm,
    reference: Vm,
    events: Vec<HostEvent>,
}

impl ShadowVm {
    /// Compiles `program` for the fast plane and loads the same program
    /// into the reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns the typed validation error for a malformed program.
    pub fn new(program: Program, budget: Budget) -> Result<Self> {
        let fast = CompiledVm::compile(program.clone(), budget)?;
        Ok(ShadowVm {
            fast,
            reference: Vm::new(program, budget),
            events: Vec::new(),
        })
    }

    /// The portable source program.
    pub fn program(&self) -> &Program {
        self.fast.program()
    }

    /// The budget both machines run under.
    pub fn budget(&self) -> Budget {
        self.fast.budget()
    }

    /// Current machine status (identical on both planes by construction).
    pub fn status(&self) -> VmStatus {
        self.fast.status()
    }

    /// Total instructions executed since the program was loaded.
    pub fn total_instructions(&self) -> u64 {
        self.fast.total_instructions()
    }

    /// Number of execution slots granted so far.
    pub fn slots_run(&self) -> u64 {
        self.fast.slots_run()
    }

    /// Superinstruction execution counters from the fast plane.
    pub fn fusion_counters(&self) -> FusionCounters {
        self.fast.fusion_counters()
    }

    /// Resets both machines to the start of the program.
    pub fn reset(&mut self) {
        self.fast.reset();
        self.reference.reset();
    }

    /// Runs one slot on the fast plane against `host` (effects happen
    /// once), replays the recorded host traffic through the reference
    /// interpreter, and asserts both engines agree on every observable.
    ///
    /// # Errors
    ///
    /// Returns the fault that stopped the program (identical on both
    /// planes, or the slot panics with a divergence diagnostic).
    ///
    /// # Panics
    ///
    /// Panics with a detailed diagnostic on any observable divergence
    /// between the two planes — that is the point.
    pub fn run_slot(&mut self, host: &mut dyn PortHost) -> Result<SlotReport> {
        self.events.clear();
        let fast_result = {
            let mut recorder = RecordingHost {
                inner: host,
                events: &mut self.events,
            };
            self.fast.run_slot(&mut recorder)
        };
        let name = self.fast.program().name().to_owned();
        let reference_result = {
            let mut replay = ReplayHost {
                program: &name,
                events: &self.events,
                cursor: 0,
            };
            let result = self.reference.run_slot(&mut replay);
            assert_eq!(
                replay.cursor,
                self.events.len(),
                "shadow divergence in '{name}': fast plane made {} host calls, \
                 reference engine replayed only {}",
                self.events.len(),
                replay.cursor
            );
            result
        };
        self.assert_converged(&name, &fast_result, &reference_result);
        fast_result
    }

    fn assert_converged(
        &self,
        name: &str,
        fast: &Result<SlotReport>,
        reference: &Result<SlotReport>,
    ) {
        match (fast, reference) {
            (Ok(a), Ok(b)) => assert_eq!(
                a, b,
                "shadow divergence in '{name}': slot reports differ \
                 (fast {a:?}, reference {b:?})"
            ),
            (Err(a), Err(b)) => assert_eq!(
                a, b,
                "shadow divergence in '{name}': faults differ \
                 (fast {a:?}, reference {b:?})"
            ),
            (a, b) => panic!(
                "shadow divergence in '{name}': outcomes differ \
                 (fast {a:?}, reference {b:?})"
            ),
        }
        assert_eq!(
            self.fast.status(),
            self.reference.status(),
            "shadow divergence in '{name}': status differs"
        );
        assert_eq!(
            self.fast.pc(),
            self.reference.pc(),
            "shadow divergence in '{name}': program counter differs"
        );
        assert_eq!(
            self.fast.total_instructions(),
            self.reference.total_instructions(),
            "shadow divergence in '{name}': lifetime instruction counts differ"
        );
        assert_eq!(
            self.fast.slots_run(),
            self.reference.slots_run(),
            "shadow divergence in '{name}': slot counts differ"
        );
        assert_eq!(
            self.fast.used_bytes(),
            self.reference.used_bytes(),
            "shadow divergence in '{name}': memory accounting differs"
        );
        assert!(
            slices_identical(self.fast.stack(), self.reference.stack()),
            "shadow divergence in '{name}': stacks differ \
             (fast {:?}, reference {:?})",
            self.fast.stack(),
            self.reference.stack()
        );
        assert!(
            slices_identical(self.fast.locals(), self.reference.locals()),
            "shadow divergence in '{name}': locals differ \
             (fast {:?}, reference {:?})",
            self.fast.locals(),
            self.reference.locals()
        );
    }
}
