//! The instruction set of the plug-in virtual machine.

use std::fmt;

/// One instruction of the plug-in virtual machine.
///
/// The machine is stack-based: most instructions pop their operands from the
/// value stack and push their result.  Ports are addressed by *slot* numbers,
/// which the Port Initialization Context maps to SW-C-scope unique plug-in
/// port ids at installation time.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Does nothing.
    Nop,
    /// Pushes constant-pool entry `index`.
    PushConst(u16),
    /// Pushes an immediate integer.
    PushInt(i64),
    /// Duplicates the top of stack.
    Dup,
    /// Discards the top of stack.
    Pop,
    /// Swaps the two topmost stack values.
    Swap,
    /// Pushes local variable `index`.
    Load(u8),
    /// Pops into local variable `index`.
    Store(u8),
    /// Pops two values and pushes their sum.
    Add,
    /// Pops two values and pushes their difference (`second - top`).
    Sub,
    /// Pops two values and pushes their product.
    Mul,
    /// Pops two values and pushes their quotient (`second / top`).
    Div,
    /// Pops two values and pushes the remainder (`second % top`).
    Rem,
    /// Negates the numeric top of stack.
    Neg,
    /// Pops two values and pushes whether they are equal.
    Eq,
    /// Pops two values and pushes whether they differ.
    Ne,
    /// Pops two values and pushes `second < top`.
    Lt,
    /// Pops two values and pushes `second <= top`.
    Le,
    /// Pops two values and pushes `second > top`.
    Gt,
    /// Pops two values and pushes `second >= top`.
    Ge,
    /// Logical conjunction of the two topmost booleans.
    And,
    /// Logical disjunction of the two topmost booleans.
    Or,
    /// Logical negation of the topmost boolean.
    Not,
    /// Unconditional jump to code offset `target`.
    Jump(u16),
    /// Pops a boolean; jumps to `target` when it is false.
    JumpIfFalse(u16),
    /// Pops a boolean; jumps to `target` when it is true.
    JumpIfTrue(u16),
    /// Pushes the latest value of port slot `slot` without consuming it.
    ReadPort(u32),
    /// Consumes and pushes the next value of port slot `slot`
    /// (pushes `Void` when nothing is queued).
    TakePort(u32),
    /// Pops a value and writes it to port slot `slot`.
    WritePort(u32),
    /// Pushes the number of values waiting on port slot `slot`.
    PortPending(u32),
    /// Pops `count` values and pushes them as a list (top of stack becomes
    /// the last element).
    MakeList(u8),
    /// Pops an index and a list, pushes the element at that index.
    ListGet,
    /// Pops a list and pushes its length.
    ListLen,
    /// Pops a value and sends its display form to the host log.
    Log,
    /// Ends the current execution slot; execution resumes at the next
    /// instruction in the next slot.
    Yield,
    /// Ends the program permanently.
    Halt,
}

impl Instruction {
    /// The assembler mnemonic of the instruction.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Nop => "nop",
            Instruction::PushConst(_) => "push_const",
            Instruction::PushInt(_) => "push_int",
            Instruction::Dup => "dup",
            Instruction::Pop => "pop",
            Instruction::Swap => "swap",
            Instruction::Load(_) => "load",
            Instruction::Store(_) => "store",
            Instruction::Add => "add",
            Instruction::Sub => "sub",
            Instruction::Mul => "mul",
            Instruction::Div => "div",
            Instruction::Rem => "rem",
            Instruction::Neg => "neg",
            Instruction::Eq => "eq",
            Instruction::Ne => "ne",
            Instruction::Lt => "lt",
            Instruction::Le => "le",
            Instruction::Gt => "gt",
            Instruction::Ge => "ge",
            Instruction::And => "and",
            Instruction::Or => "or",
            Instruction::Not => "not",
            Instruction::Jump(_) => "jump",
            Instruction::JumpIfFalse(_) => "jump_if_false",
            Instruction::JumpIfTrue(_) => "jump_if_true",
            Instruction::ReadPort(_) => "read_port",
            Instruction::TakePort(_) => "take_port",
            Instruction::WritePort(_) => "write_port",
            Instruction::PortPending(_) => "port_pending",
            Instruction::MakeList(_) => "make_list",
            Instruction::ListGet => "list_get",
            Instruction::ListLen => "list_len",
            Instruction::Log => "log",
            Instruction::Yield => "yield",
            Instruction::Halt => "halt",
        }
    }

    /// The numeric opcode used in the portable binary format.
    pub fn opcode(&self) -> u8 {
        match self {
            Instruction::Nop => 0x00,
            Instruction::PushConst(_) => 0x01,
            Instruction::PushInt(_) => 0x02,
            Instruction::Dup => 0x03,
            Instruction::Pop => 0x04,
            Instruction::Swap => 0x05,
            Instruction::Load(_) => 0x06,
            Instruction::Store(_) => 0x07,
            Instruction::Add => 0x10,
            Instruction::Sub => 0x11,
            Instruction::Mul => 0x12,
            Instruction::Div => 0x13,
            Instruction::Rem => 0x14,
            Instruction::Neg => 0x15,
            Instruction::Eq => 0x20,
            Instruction::Ne => 0x21,
            Instruction::Lt => 0x22,
            Instruction::Le => 0x23,
            Instruction::Gt => 0x24,
            Instruction::Ge => 0x25,
            Instruction::And => 0x26,
            Instruction::Or => 0x27,
            Instruction::Not => 0x28,
            Instruction::Jump(_) => 0x30,
            Instruction::JumpIfFalse(_) => 0x31,
            Instruction::JumpIfTrue(_) => 0x32,
            Instruction::ReadPort(_) => 0x40,
            Instruction::TakePort(_) => 0x41,
            Instruction::WritePort(_) => 0x42,
            Instruction::PortPending(_) => 0x43,
            Instruction::MakeList(_) => 0x50,
            Instruction::ListGet => 0x51,
            Instruction::ListLen => 0x52,
            Instruction::Log => 0x60,
            Instruction::Yield => 0x70,
            Instruction::Halt => 0x71,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::PushConst(i) => write!(f, "push_const #{i}"),
            Instruction::PushInt(v) => write!(f, "push_int {v}"),
            Instruction::Load(i) => write!(f, "load {i}"),
            Instruction::Store(i) => write!(f, "store {i}"),
            Instruction::Jump(t) => write!(f, "jump {t}"),
            Instruction::JumpIfFalse(t) => write!(f, "jump_if_false {t}"),
            Instruction::JumpIfTrue(t) => write!(f, "jump_if_true {t}"),
            Instruction::ReadPort(s) => write!(f, "read_port {s}"),
            Instruction::TakePort(s) => write!(f, "take_port {s}"),
            Instruction::WritePort(s) => write!(f, "write_port {s}"),
            Instruction::PortPending(s) => write!(f, "port_pending {s}"),
            Instruction::MakeList(n) => write!(f, "make_list {n}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcodes_are_unique() {
        let all = [
            Instruction::Nop,
            Instruction::PushConst(0),
            Instruction::PushInt(0),
            Instruction::Dup,
            Instruction::Pop,
            Instruction::Swap,
            Instruction::Load(0),
            Instruction::Store(0),
            Instruction::Add,
            Instruction::Sub,
            Instruction::Mul,
            Instruction::Div,
            Instruction::Rem,
            Instruction::Neg,
            Instruction::Eq,
            Instruction::Ne,
            Instruction::Lt,
            Instruction::Le,
            Instruction::Gt,
            Instruction::Ge,
            Instruction::And,
            Instruction::Or,
            Instruction::Not,
            Instruction::Jump(0),
            Instruction::JumpIfFalse(0),
            Instruction::JumpIfTrue(0),
            Instruction::ReadPort(0),
            Instruction::TakePort(0),
            Instruction::WritePort(0),
            Instruction::PortPending(0),
            Instruction::MakeList(0),
            Instruction::ListGet,
            Instruction::ListLen,
            Instruction::Log,
            Instruction::Yield,
            Instruction::Halt,
        ];
        let mut seen = std::collections::HashSet::new();
        for instr in &all {
            assert!(seen.insert(instr.opcode()), "duplicate opcode for {instr}");
            assert!(!instr.mnemonic().is_empty());
        }
        assert_eq!(seen.len(), all.len());
    }

    #[test]
    fn display_includes_operands() {
        assert_eq!(Instruction::WritePort(3).to_string(), "write_port 3");
        assert_eq!(Instruction::PushInt(-4).to_string(), "push_int -4");
        assert_eq!(Instruction::Halt.to_string(), "halt");
    }
}
