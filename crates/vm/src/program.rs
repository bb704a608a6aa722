//! Plug-in programs and their portable binary format.
//!
//! A [`Program`] is what the trusted server stores in its `APP` database and
//! what travels inside installation packages: a constant pool of [`Value`]s
//! plus a code section.  The binary format is deliberately simple and
//! versioned so that a vehicle can reject packages built for a newer format.

use dynar_foundation::codec::{decode_prefix, encode_into};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::value::Value;

use crate::isa::Instruction;

/// Magic bytes identifying a plug-in binary.
pub const MAGIC: &[u8; 4] = b"DPLG";
/// Current binary format version.
pub const FORMAT_VERSION: u8 = 1;

/// A complete plug-in program.
///
/// # Example
/// ```
/// use dynar_vm::isa::Instruction;
/// use dynar_vm::program::Program;
/// use dynar_foundation::value::Value;
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let program = Program::new("blinker")
///     .with_constant(Value::Text("on".into()))
///     .with_code(vec![Instruction::PushConst(0), Instruction::WritePort(0), Instruction::Halt]);
/// let bytes = program.to_bytes();
/// assert_eq!(Program::from_bytes(&bytes)?, program);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    name: String,
    constants: Vec<Value>,
    code: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            constants: Vec::new(),
            code: Vec::new(),
        }
    }

    /// Adds one constant to the pool.
    #[must_use]
    pub fn with_constant(mut self, value: Value) -> Self {
        self.constants.push(value);
        self
    }

    /// Replaces the code section.
    #[must_use]
    pub fn with_code(mut self, code: Vec<Instruction>) -> Self {
        self.code = code;
        self
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constant pool.
    pub fn constants(&self) -> &[Value] {
        &self.constants
    }

    /// The code section.
    pub fn code(&self) -> &[Instruction] {
        &self.code
    }

    /// Adds a constant, returning its pool index (reusing an identical
    /// existing entry when possible).
    pub fn intern_constant(&mut self, value: Value) -> u16 {
        if let Some(index) = self.constants.iter().position(|c| *c == value) {
            return index as u16;
        }
        self.constants.push(value);
        (self.constants.len() - 1) as u16
    }

    /// Appends one instruction.
    pub fn push_instruction(&mut self, instruction: Instruction) {
        self.code.push(instruction);
    }

    /// Verifies structural well-formedness: jump targets inside the code
    /// section and constant references inside the pool.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<()> {
        let len = self.code.len();
        for (pc, instruction) in self.code.iter().enumerate() {
            match instruction {
                Instruction::Jump(t) | Instruction::JumpIfFalse(t) | Instruction::JumpIfTrue(t)
                    if *t as usize >= len =>
                {
                    return Err(DynarError::invalid_config(format!(
                        "jump target {t} at pc {pc} outside program of {len} instructions"
                    )));
                }
                Instruction::PushConst(index) if *index as usize >= self.constants.len() => {
                    return Err(DynarError::invalid_config(format!(
                        "constant #{index} at pc {pc} outside pool of {}",
                        self.constants.len()
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Serializes the program into the portable binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(FORMAT_VERSION);
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.constants.len() as u16).to_le_bytes());
        for constant in &self.constants {
            encode_into(constant, &mut out);
        }
        out.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        for instruction in &self.code {
            encode_instruction(instruction, &mut out);
        }
        out
    }

    /// Parses a program from its portable binary format.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed input and
    /// [`DynarError::InvalidConfiguration`] when the parsed program fails
    /// [`Program::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let truncated = || DynarError::ProtocolViolation("truncated plug-in binary".into());
        if bytes.get(..4) != Some(MAGIC.as_slice()) {
            return Err(DynarError::ProtocolViolation(
                "missing plug-in binary magic".into(),
            ));
        }
        let version = *bytes.get(4).ok_or_else(truncated)?;
        if version != FORMAT_VERSION {
            return Err(DynarError::ProtocolViolation(format!(
                "unsupported plug-in binary format version {version}"
            )));
        }
        let mut offset = 5;
        let name_len =
            u16::from_le_bytes(read_array::<2>(bytes, &mut offset).ok_or_else(truncated)?) as usize;
        let name_bytes = bytes.get(offset..offset + name_len).ok_or_else(truncated)?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| DynarError::ProtocolViolation("program name is not UTF-8".into()))?;
        offset += name_len;

        let constant_count =
            u16::from_le_bytes(read_array::<2>(bytes, &mut offset).ok_or_else(truncated)?) as usize;
        let mut constants = Vec::with_capacity(constant_count);
        for _ in 0..constant_count {
            let (value, used) = decode_prefix(bytes.get(offset..).ok_or_else(truncated)?)?;
            constants.push(value);
            offset += used;
        }

        let code_len =
            u32::from_le_bytes(read_array::<4>(bytes, &mut offset).ok_or_else(truncated)?) as usize;
        let mut code = Vec::with_capacity(code_len.min(65_536));
        for _ in 0..code_len {
            let instruction = decode_instruction(bytes, &mut offset)?;
            code.push(instruction);
        }
        if offset != bytes.len() {
            return Err(DynarError::ProtocolViolation(format!(
                "{} trailing bytes after plug-in binary",
                bytes.len() - offset
            )));
        }
        let program = Program {
            name,
            constants,
            code,
        };
        program.validate()?;
        Ok(program)
    }
}

fn read_array<const N: usize>(bytes: &[u8], offset: &mut usize) -> Option<[u8; N]> {
    let slice = bytes.get(*offset..*offset + N)?;
    *offset += N;
    Some(slice.try_into().expect("slice length checked"))
}

fn encode_instruction(instruction: &Instruction, out: &mut Vec<u8>) {
    out.push(instruction.opcode());
    match instruction {
        Instruction::PushConst(v) => out.extend_from_slice(&v.to_le_bytes()),
        Instruction::PushInt(v) => out.extend_from_slice(&v.to_le_bytes()),
        Instruction::Load(v) | Instruction::Store(v) | Instruction::MakeList(v) => out.push(*v),
        Instruction::Jump(v) | Instruction::JumpIfFalse(v) | Instruction::JumpIfTrue(v) => {
            out.extend_from_slice(&v.to_le_bytes())
        }
        Instruction::ReadPort(v)
        | Instruction::TakePort(v)
        | Instruction::WritePort(v)
        | Instruction::PortPending(v) => out.extend_from_slice(&v.to_le_bytes()),
        _ => {}
    }
}

fn decode_instruction(bytes: &[u8], offset: &mut usize) -> Result<Instruction> {
    let truncated = || DynarError::ProtocolViolation("truncated instruction stream".into());
    let opcode = *bytes.get(*offset).ok_or_else(truncated)?;
    *offset += 1;
    let mut u16_operand = || -> Result<u16> {
        read_array::<2>(bytes, offset)
            .map(u16::from_le_bytes)
            .ok_or_else(truncated)
    };
    let instruction = match opcode {
        0x00 => Instruction::Nop,
        0x01 => Instruction::PushConst(u16_operand()?),
        0x02 => Instruction::PushInt(i64::from_le_bytes(
            read_array::<8>(bytes, offset).ok_or_else(truncated)?,
        )),
        0x03 => Instruction::Dup,
        0x04 => Instruction::Pop,
        0x05 => Instruction::Swap,
        0x06 => Instruction::Load(*bytes.get(post_inc(offset)).ok_or_else(truncated)?),
        0x07 => Instruction::Store(*bytes.get(post_inc(offset)).ok_or_else(truncated)?),
        0x10 => Instruction::Add,
        0x11 => Instruction::Sub,
        0x12 => Instruction::Mul,
        0x13 => Instruction::Div,
        0x14 => Instruction::Rem,
        0x15 => Instruction::Neg,
        0x20 => Instruction::Eq,
        0x21 => Instruction::Ne,
        0x22 => Instruction::Lt,
        0x23 => Instruction::Le,
        0x24 => Instruction::Gt,
        0x25 => Instruction::Ge,
        0x26 => Instruction::And,
        0x27 => Instruction::Or,
        0x28 => Instruction::Not,
        0x30 => Instruction::Jump(u16_operand()?),
        0x31 => Instruction::JumpIfFalse(u16_operand()?),
        0x32 => Instruction::JumpIfTrue(u16_operand()?),
        0x40 => Instruction::ReadPort(u32::from_le_bytes(
            read_array::<4>(bytes, offset).ok_or_else(truncated)?,
        )),
        0x41 => Instruction::TakePort(u32::from_le_bytes(
            read_array::<4>(bytes, offset).ok_or_else(truncated)?,
        )),
        0x42 => Instruction::WritePort(u32::from_le_bytes(
            read_array::<4>(bytes, offset).ok_or_else(truncated)?,
        )),
        0x43 => Instruction::PortPending(u32::from_le_bytes(
            read_array::<4>(bytes, offset).ok_or_else(truncated)?,
        )),
        0x50 => Instruction::MakeList(*bytes.get(post_inc(offset)).ok_or_else(truncated)?),
        0x51 => Instruction::ListGet,
        0x52 => Instruction::ListLen,
        0x60 => Instruction::Log,
        0x70 => Instruction::Yield,
        0x71 => Instruction::Halt,
        other => {
            return Err(DynarError::ProtocolViolation(format!(
                "unknown opcode {other:#04x}"
            )))
        }
    };
    Ok(instruction)
}

fn post_inc(offset: &mut usize) -> usize {
    let current = *offset;
    *offset += 1;
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program::new("sample")
            .with_constant(Value::Text("Wheels".into()))
            .with_constant(Value::F64(0.5))
            .with_code(vec![
                Instruction::PushConst(0),
                Instruction::Log,
                Instruction::PushConst(1),
                Instruction::PushInt(2),
                Instruction::Mul,
                Instruction::WritePort(3),
                Instruction::Jump(0),
            ])
    }

    #[test]
    fn binary_round_trip() {
        let program = sample();
        let bytes = program.to_bytes();
        assert_eq!(Program::from_bytes(&bytes).unwrap(), program);
    }

    #[test]
    fn every_instruction_round_trips() {
        let mut program = Program::new("all").with_constant(Value::Void);
        let all = vec![
            Instruction::Nop,
            Instruction::PushConst(0),
            Instruction::PushInt(-7),
            Instruction::Dup,
            Instruction::Pop,
            Instruction::Swap,
            Instruction::Load(3),
            Instruction::Store(4),
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
            Instruction::JumpIfFalse(1),
            Instruction::JumpIfTrue(2),
            Instruction::ReadPort(9),
            Instruction::TakePort(10),
            Instruction::WritePort(11),
            Instruction::PortPending(12),
            Instruction::MakeList(2),
            Instruction::ListGet,
            Instruction::ListLen,
            Instruction::Log,
            Instruction::Yield,
            Instruction::Halt,
        ];
        for instruction in all {
            program.push_instruction(instruction);
        }
        let bytes = program.to_bytes();
        assert_eq!(Program::from_bytes(&bytes).unwrap(), program);
    }

    #[test]
    fn magic_and_version_are_checked() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(Program::from_bytes(&bytes).is_err());

        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(Program::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = sample().to_bytes();
        assert!(Program::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Program::from_bytes(&extended).is_err());
        assert!(Program::from_bytes(&[]).is_err());
    }

    #[test]
    fn validate_catches_bad_references() {
        let bad_jump = Program::new("p").with_code(vec![Instruction::Jump(9)]);
        assert!(bad_jump.validate().is_err());
        let bad_const = Program::new("p").with_code(vec![Instruction::PushConst(0)]);
        assert!(bad_const.validate().is_err());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn intern_constant_reuses_entries() {
        let mut program = Program::new("p");
        let a = program.intern_constant(Value::Text("x".into()));
        let b = program.intern_constant(Value::Text("x".into()));
        let c = program.intern_constant(Value::Text("y".into()));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(program.constants().len(), 2);
    }

    #[test]
    fn from_bytes_rejects_invalid_program_structure() {
        let program = Program::new("p").with_code(vec![Instruction::Jump(5)]);
        let bytes = program.to_bytes();
        assert!(
            Program::from_bytes(&bytes).is_err(),
            "deserialization validates jump targets"
        );
    }
}
