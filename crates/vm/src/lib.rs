//! The plug-in virtual machine.
//!
//! In the paper, each plug-in SW-C embeds a Java virtual machine with its own
//! memory, computational and communication resources, so that downloaded
//! plug-in binaries are portable across ECUs and execute under a best-effort
//! scheme that cannot starve the built-in functionality (§3.1.1).  This crate
//! provides the equivalent sandbox for the reproduction: a small stack-based
//! bytecode machine whose only window to the outside world is a host-call
//! interface to its plug-in ports.
//!
//! * [`isa`] — the instruction set;
//! * [`program`] — plug-in programs (constant pool + code) and the portable
//!   binary format they are shipped in;
//! * [`assembler`] — a tiny text assembler/disassembler so example plug-ins
//!   can be written readably;
//! * [`budget`] — per-slot instruction and memory budgets (the best-effort
//!   scheme);
//! * [`compiled`] — the machine every plug-in runs on: install-time
//!   pre-decode into a dense [`compiled::CompiledProgram`] with a
//!   superinstruction overlay, executed by [`compiled::CompiledVm`];
//! * [`interpreter`] — the reference [`interpreter::Vm`] the compiled
//!   machine is checked against, and the [`interpreter::PortHost`] trait
//!   the PIRTE implements;
//! * [`shadow`] — lock-step shadow execution of both machines, asserting
//!   they are observably identical (used by the equivalence tests).
//!
//! # Example
//!
//! ```
//! use dynar_vm::assembler::assemble;
//! use dynar_vm::budget::Budget;
//! use dynar_vm::interpreter::{PortHost, Vm, VmStatus};
//! use dynar_foundation::value::Value;
//!
//! /// A host exposing two ports as plain slots.
//! struct TestHost { ports: Vec<Value> }
//! impl PortHost for TestHost {
//!     fn read_port(&mut self, slot: u32) -> dynar_foundation::error::Result<Value> {
//!         Ok(self.ports.get(slot as usize).cloned().unwrap_or_default())
//!     }
//!     fn take_port(&mut self, slot: u32) -> dynar_foundation::error::Result<Value> {
//!         self.read_port(slot)
//!     }
//!     fn write_port(&mut self, slot: u32, value: Value) -> dynar_foundation::error::Result<()> {
//!         if let Some(p) = self.ports.get_mut(slot as usize) { *p = value; }
//!         Ok(())
//!     }
//!     fn pending(&mut self, slot: u32) -> dynar_foundation::error::Result<usize> {
//!         Ok(usize::from(!self.ports[slot as usize].is_void()))
//!     }
//!     fn log(&mut self, _message: &str) {}
//! }
//!
//! # fn main() -> Result<(), dynar_foundation::error::DynarError> {
//! // Double whatever arrives on port 0 and write it to port 1.
//! let program = assemble(
//!     "double",
//!     r#"
//!     read_port 0
//!     push_int 2
//!     mul
//!     write_port 1
//!     halt
//!     "#,
//! )?;
//! let mut vm = Vm::new(program, Budget::default());
//! let mut host = TestHost { ports: vec![Value::I64(21), Value::Void] };
//! let report = vm.run_slot(&mut host)?;
//! assert_eq!(report.status, VmStatus::Halted);
//! assert_eq!(host.ports[1], Value::I64(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod budget;
pub mod compiled;
mod exec;
pub mod interpreter;
pub mod isa;
pub mod program;
pub mod shadow;

pub use assembler::{assemble, disassemble};
pub use budget::Budget;
pub use compiled::{CompiledProgram, CompiledVm, FusionCounters};
pub use interpreter::{PortHost, SlotReport, Vm, VmStatus};
pub use isa::Instruction;
pub use program::Program;
pub use shadow::ShadowVm;
