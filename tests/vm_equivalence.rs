//! The execution-plane equivalence suite.
//!
//! The compiled fast plane (`dynar::vm::compiled`) must be observably
//! byte-identical to the reference interpreter — same outcomes, statuses,
//! port effects, logs, fault messages and budget consumption.  This suite
//! proves it three ways:
//!
//! 1. every scenario-style program runs in lock-step shadow mode
//!    ([`ShadowVm`] panics on any divergence),
//! 2. a whole PIRTE runs the same traffic as the reference interpreter
//!    [`Vm`] over the fake host and must actuate the same values with the
//!    same instruction count,
//! 3. a fixed-seed sweep of random programs under adversarially tight
//!    budgets (tiny slots, tiny stacks, tiny memory, missing ports) runs in
//!    shadow mode — the same proof the routing plane got in its
//!    `routing_equivalence` suite, applied to the execution plane.

use dynar::core::context::{InstallationContext, LinkTarget, PortInitContext, PortLinkContext};
use dynar::core::pirte::Pirte;
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::PluginSwcConfig;
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::core::InstallationPackage;
use dynar::foundation::error::{DynarError, Result};
use dynar::foundation::ids::{AppId, EcuId, PluginId, PluginPortId, VirtualPortId};
use dynar::foundation::value::Value;
use dynar::vm::isa::Instruction;
use dynar::vm::program::Program;
use dynar::vm::{assemble, Budget, PortHost, ShadowVm, Vm};

// ---------------------------------------------------------------------------
// A deterministic host fake (mirrors the vm crate's test host).
// ---------------------------------------------------------------------------

struct FakeHost {
    slots: Vec<Vec<Value>>,
    written: Vec<(u32, Value)>,
    logs: Vec<String>,
}

impl FakeHost {
    fn new(slot_count: usize) -> Self {
        FakeHost {
            slots: vec![Vec::new(); slot_count],
            written: Vec::new(),
            logs: Vec::new(),
        }
    }

    fn slot(&mut self, slot: u32) -> Result<&mut Vec<Value>> {
        self.slots
            .get_mut(slot as usize)
            .ok_or_else(|| DynarError::not_found("port slot", slot))
    }
}

impl PortHost for FakeHost {
    fn read_port(&mut self, slot: u32) -> Result<Value> {
        Ok(self.slot(slot)?.first().cloned().unwrap_or_default())
    }
    fn take_port(&mut self, slot: u32) -> Result<Value> {
        let queue = self.slot(slot)?;
        Ok(if queue.is_empty() {
            Value::Void
        } else {
            queue.remove(0)
        })
    }
    fn write_port(&mut self, slot: u32, value: Value) -> Result<()> {
        self.slot(slot)?;
        self.written.push((slot, value));
        Ok(())
    }
    fn pending(&mut self, slot: u32) -> Result<usize> {
        Ok(self.slot(slot)?.len())
    }
    fn log(&mut self, message: &str) {
        self.logs.push(message.to_owned());
    }
}

// ---------------------------------------------------------------------------
// 1. Scenario programs in shadow mode.
// ---------------------------------------------------------------------------

/// The scenario idioms the demonstrators ship: pending-guard loops,
/// take/forward pipelines, accumulators, list builders, a div-by-zero
/// faulter and a runaway loop living off preemption.
fn scenario_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "doubler",
            r#"
            loop:
                port_pending 0
                push_int 0
                gt
                jump_if_false idle
                take_port 0
                push_int 2
                mul
                write_port 1
                jump loop
            idle:
                yield
                jump loop
            "#,
        ),
        (
            "forwarder",
            r#"
            loop:
                port_pending 0
                push_int 0
                gt
                jump_if_false idle
                take_port 0
                write_port 1
                jump loop
            idle:
                yield
                jump loop
            "#,
        ),
        (
            "accumulator",
            r#"
                push_int 0
                store 0
            loop:
                load 0
                push_int 3
                add
                store 0
                load 0
                write_port 1
                yield
                jump loop
            "#,
        ),
        (
            "lister",
            r#"
                take_port 0
                push_int 1
                make_list 2
                dup
                list_len
                write_port 1
                push_int 0
                list_get
                log
                yield
                halt
            "#,
        ),
        (
            "faulter",
            r#"
                take_port 0
                push_int 0
                div
                write_port 1
                halt
            "#,
        ),
        (
            "runaway",
            r#"
                push_int 1
                store 0
            loop:
                load 0
                push_int 2
                mul
                store 0
                jump loop
            "#,
        ),
    ]
}

#[test]
fn scenario_programs_shadow_execute_identically() {
    for (name, source) in scenario_sources() {
        let program = assemble(name, source).unwrap();
        // A modest budget so the runaway multiplier is preempted (and
        // eventually faults on checked overflow — identically on both
        // planes).
        let mut shadow = ShadowVm::new(program, Budget::new(64)).unwrap();
        let mut host = FakeHost::new(2);
        let mut faulted = false;
        for tick in 0..12 {
            if tick % 3 != 2 {
                host.slots[0].push(Value::I64(tick));
            }
            if shadow.run_slot(&mut host).is_err() {
                faulted = true;
            }
        }
        if name == "faulter" || name == "runaway" {
            assert!(faulted, "{name} should fault on both planes");
        }
        assert!(shadow.slots_run() > 0, "{name} ran no slots");
    }
}

// ---------------------------------------------------------------------------
// 2. A whole PIRTE against the reference interpreter.
// ---------------------------------------------------------------------------

fn swc_config() -> PluginSwcConfig {
    PluginSwcConfig::new("plugin-swc")
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(4),
            "WheelsReq",
            PortKind::TypeIII,
            PortDataDirection::ToSystem,
            "wheels_req",
        ))
        .with_virtual_port(VirtualPortSpec::new(
            VirtualPortId::new(6),
            "SpeedProv",
            PortKind::TypeIII,
            PortDataDirection::ToPlugins,
            "speed_prov",
        ))
}

fn doubler_package(name: &str) -> InstallationPackage {
    let binary = assemble(
        name,
        r#"
        loop:
            port_pending 0
            push_int 0
            gt
            jump_if_false idle
            take_port 0
            push_int 2
            mul
            write_port 1
            jump loop
        idle:
            yield
            jump loop
        "#,
    )
    .unwrap()
    .to_bytes();
    let context = InstallationContext::new(
        PortInitContext::new()
            .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(6)),
            )
            .with_link(
                PluginPortId::new(1),
                LinkTarget::VirtualPort(VirtualPortId::new(4)),
            ),
    );
    InstallationPackage::new(PluginId::new(name), AppId::new("app"), binary, context)
}

#[test]
fn pirte_actuates_like_the_reference_interpreter() {
    let package = doubler_package("dbl");
    let mut reference = Vm::new(
        Program::from_bytes(&package.binary).unwrap(),
        Budget::default(),
    );
    let mut host = FakeHost::new(2);
    let mut pirte = Pirte::new(EcuId::new(2), swc_config());
    pirte.install(package).unwrap();
    let mut actuated = 0;
    for tick in 0..20i64 {
        if tick % 2 == 0 {
            pirte
                .dispatch_swc_input("speed_prov", Value::I64(tick))
                .unwrap();
            host.slots[0].push(Value::I64(tick));
        }
        pirte.run_plugins();
        reference.run_slot(&mut host).unwrap();
        let routed: Vec<(String, Value)> = pirte.drain_outbox();
        let expected: Vec<(String, Value)> = host
            .written
            .drain(..)
            .map(|(slot, value)| {
                assert_eq!(slot, 1, "the doubler writes only its out port");
                ("wheels_req".to_owned(), value)
            })
            .collect();
        assert_eq!(routed, expected, "actuated values at tick {tick}");
        actuated += routed.len();
    }
    assert_eq!(actuated, 10, "every input was doubled onto the actuator");
    let stats = pirte.stats();
    assert_eq!(stats.instructions_executed, reference.total_instructions());
    assert_eq!(stats.slots_granted, reference.slots_run());
    // Fused windows must actually execute in the PIRTE.
    assert!(
        pirte.fusion_counters().push_int_cmp_branch > 0,
        "loop-guard fusion should fire"
    );
}

#[test]
fn pirte_forwarder_fires_port_superinstructions() {
    let mut pirte = Pirte::new(EcuId::new(2), swc_config());
    let binary = assemble(
        "fwd",
        r#"
        loop:
            port_pending 0
            push_int 0
            gt
            jump_if_false idle
            take_port 0
            write_port 1
            jump loop
        idle:
            yield
            jump loop
        "#,
    )
    .unwrap()
    .to_bytes();
    let context = InstallationContext::new(
        PortInitContext::new()
            .with_port("in", PluginPortId::new(0), PluginPortDirection::Required)
            .with_port("out", PluginPortId::new(1), PluginPortDirection::Provided),
        PortLinkContext::new()
            .with_link(
                PluginPortId::new(0),
                LinkTarget::VirtualPort(VirtualPortId::new(6)),
            )
            .with_link(
                PluginPortId::new(1),
                LinkTarget::VirtualPort(VirtualPortId::new(4)),
            ),
    );
    pirte
        .install(InstallationPackage::new(
            PluginId::new("fwd"),
            AppId::new("app"),
            binary,
            context,
        ))
        .unwrap();
    for tick in 0..10i64 {
        pirte
            .dispatch_swc_input("speed_prov", Value::I64(tick))
            .unwrap();
        pirte.run_plugins();
    }
    let counters = pirte.fusion_counters();
    assert!(counters.take_port_write_port > 0, "forwarder fusion idle");
    assert!(counters.push_int_cmp_branch > 0, "loop-guard fusion idle");
    assert_eq!(pirte.drain_outbox().len(), 10);
}

// ---------------------------------------------------------------------------
// 3. Fixed-seed random programs under adversarial budgets.
// ---------------------------------------------------------------------------

/// Splitmix-style deterministic PRNG — no external crates, stable across
/// platforms, pinned seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn random_value(rng: &mut Rng) -> Value {
    match rng.below(8) {
        0 => Value::Void,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::I64(rng.next() as i64 % 1000),
        3 => Value::I64(i64::MAX - rng.below(2) as i64),
        4 => Value::F64(rng.next() as f64 / 7.0),
        5 => Value::Text(format!("t{}", rng.below(100))),
        6 => Value::Bytes(vec![0u8; rng.below(48) as usize]),
        _ => Value::List(vec![Value::I64(1), Value::Bool(true)]),
    }
}

/// Generates a structurally valid random program: jump targets and constant
/// references are reduced modulo their ranges so compilation succeeds; all
/// runtime behaviour (underflow, type faults, budget exhaustion, missing
/// host ports) is left to chance.
fn random_program(rng: &mut Rng, index: usize) -> Program {
    let len = 4 + rng.below(36) as usize;
    let mut code = Vec::with_capacity(len);
    for _ in 0..len {
        let target = rng.below(len as u64) as u16;
        // Weighted draw: pushes dominate so a healthy share of programs run
        // clean; the risky tail (underflow, overflow, type faults, missing
        // ports) still gets drawn often enough to exercise every fault path.
        let op = match rng.below(100) {
            0..=13 => Instruction::PushInt(rng.next() as i64 % 100),
            14..=15 => Instruction::PushInt(i64::MAX - rng.below(2) as i64),
            16..=23 => Instruction::PushConst(rng.below(4) as u16),
            24..=31 => Instruction::Load(rng.below(10) as u8),
            32..=37 => Instruction::Store(rng.below(10) as u8),
            38 => Instruction::Add,
            39 => Instruction::Sub,
            40 => Instruction::Mul,
            41 => Instruction::Div,
            42 => Instruction::Rem,
            43 => Instruction::Neg,
            44 => Instruction::Not,
            45 => Instruction::And,
            46 => Instruction::Or,
            47..=48 => Instruction::Eq,
            49 => Instruction::Ne,
            50 => Instruction::Lt,
            51 => Instruction::Le,
            52 => Instruction::Gt,
            53 => Instruction::Ge,
            54..=56 => Instruction::Jump(target),
            57..=59 => Instruction::JumpIfFalse(target),
            60..=61 => Instruction::JumpIfTrue(target),
            62..=66 => Instruction::ReadPort(rng.below(4) as u32),
            67..=71 => Instruction::TakePort(rng.below(4) as u32),
            72..=74 => Instruction::WritePort(rng.below(4) as u32),
            75..=78 => Instruction::PortPending(rng.below(4) as u32),
            79..=82 => Instruction::Dup,
            83 => Instruction::Pop,
            84 => Instruction::Swap,
            85 => Instruction::MakeList(rng.below(4) as u8),
            86 => Instruction::ListGet,
            87 => Instruction::ListLen,
            88..=89 => Instruction::Log,
            90..=95 => Instruction::Yield,
            96..=98 => Instruction::Nop,
            _ => Instruction::Halt,
        };
        code.push(op);
    }
    Program::new(format!("rand{index}"))
        .with_constant(Value::I64(7))
        .with_constant(Value::F64(2.5))
        .with_constant(Value::Text("probe".into()))
        .with_constant(Value::Bytes(vec![0u8; 40]))
        .with_code(code)
}

/// Generates a program from a safe subset (stack depth tracked, no
/// arithmetic, no jumps, ports 0..=2 only) that is guaranteed to run clean —
/// these exercise the compiled plane's happy paths and give the port-fusion
/// windows (`take_port; store`, `load; write_port`) a chance to fire.
fn tame_program(rng: &mut Rng, index: usize) -> Program {
    let len = 4 + rng.below(28) as usize;
    let mut code = Vec::with_capacity(len);
    let mut depth = 0usize;
    for _ in 0..len {
        let op = match rng.below(10) {
            0..=4 if depth < 2 => {
                depth += 1;
                match rng.below(6) {
                    0 => Instruction::PushInt(rng.next() as i64 % 50),
                    1 => Instruction::PushConst(rng.below(3) as u16),
                    2 => Instruction::ReadPort(rng.below(3) as u32),
                    3 => Instruction::TakePort(rng.below(3) as u32),
                    4 => Instruction::PortPending(rng.below(3) as u32),
                    _ => Instruction::Load(0),
                }
            }
            5..=7 if depth >= 1 => {
                depth -= 1;
                match rng.below(4) {
                    0 => Instruction::Store(0),
                    1 => Instruction::Pop,
                    2 => Instruction::Log,
                    _ => Instruction::WritePort(rng.below(3) as u32),
                }
            }
            8 if depth >= 2 => {
                depth -= 1;
                if rng.below(2) == 0 {
                    Instruction::Eq
                } else {
                    Instruction::Ne
                }
            }
            9 => Instruction::Yield,
            _ => Instruction::Nop,
        };
        code.push(op);
    }
    Program::new(format!("tame{index}"))
        .with_constant(Value::I64(7))
        .with_constant(Value::F64(2.5))
        .with_constant(Value::Text("probe".into()))
        .with_code(code)
}

fn random_budget(rng: &mut Rng) -> Budget {
    let instructions = [3, 5, 7, 16, 64][rng.below(5) as usize];
    let stack = [2, 3, 4, 256][rng.below(4) as usize];
    let memory = [64, 128, 200, 64 * 1024][rng.below(4) as usize];
    let locals = [1, 2, 8][rng.below(3) as usize];
    Budget::new(instructions)
        .with_max_stack(stack)
        .with_max_memory_bytes(memory)
        .with_locals(locals)
}

#[test]
fn fixed_seed_random_programs_shadow_execute_identically() {
    let mut rng = Rng(0xDAC2_0140_0000_0005);
    let mut faults = 0u32;
    let mut clean = 0u32;
    for index in 0..400 {
        // Alternate wild soup (fault paths) with tame programs (happy
        // paths); the tame half gets enough memory that arbitrary port
        // traffic cannot push it over budget.
        let (program, budget) = if index % 2 == 0 {
            (random_program(&mut rng, index), random_budget(&mut rng))
        } else {
            (
                tame_program(&mut rng, index),
                random_budget(&mut rng).with_max_memory_bytes(64 * 1024),
            )
        };
        let mut shadow =
            ShadowVm::new(program, budget).expect("fixed-up random programs always compile");
        // Only 3 host slots: port index 3 exercises the host-fault path.
        let mut host = FakeHost::new(3);
        let mut errored = false;
        for _ in 0..4 {
            for _ in 0..rng.below(3) {
                let slot = rng.below(3) as usize;
                let value = random_value(&mut rng);
                host.slots[slot].push(value);
            }
            // ShadowVm panics on any observable divergence; errors are a
            // legitimate (and equivalence-checked) outcome.
            if shadow.run_slot(&mut host).is_err() {
                errored = true;
                break;
            }
        }
        if errored {
            faults += 1;
        } else {
            clean += 1;
        }
    }
    // The sweep must genuinely exercise both the happy paths and the fault
    // paths — a generator drifting to all-faults (or none) would gut the
    // proof.
    assert!(faults > 100, "only {faults}/400 random programs faulted");
    assert!(clean > 100, "only {clean}/400 random programs ran clean");
}
