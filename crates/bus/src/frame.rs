//! Frames and identifiers of the in-vehicle network.

use std::fmt;

use dynar_foundation::error::{DynarError, Result};

/// Maximum payload length of one frame, matching CAN FD.
pub const MAX_PAYLOAD: usize = 64;

/// A 29-bit frame identifier; lower values win arbitration, as on CAN.
///
/// # Example
/// ```
/// use dynar_bus::frame::CanId;
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let id = CanId::new(0x1A0)?;
/// assert_eq!(id.raw(), 0x1A0);
/// assert!(CanId::new(0x100)? < id, "lower id is more urgent");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanId(u32);

impl CanId {
    /// Largest representable identifier (29-bit extended format).
    pub const MAX: u32 = 0x1FFF_FFFF;

    /// Creates an identifier.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if `raw` exceeds 29 bits.
    pub fn new(raw: u32) -> Result<Self> {
        if raw > Self::MAX {
            return Err(DynarError::invalid_config(format!(
                "frame identifier {raw:#x} exceeds 29 bits"
            )));
        }
        Ok(CanId(raw))
    }

    /// Returns the raw identifier value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:X}", self.0)
    }
}

impl fmt::LowerHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// One frame on the bus: an identifier plus up to [`MAX_PAYLOAD`] bytes.
///
/// # Example
/// ```
/// use dynar_bus::frame::{CanId, Frame};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let frame = Frame::new(CanId::new(0x55)?, vec![0xDE, 0xAD])?;
/// assert_eq!(frame.dlc(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    id: CanId,
    payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if the payload exceeds
    /// [`MAX_PAYLOAD`] bytes.
    pub fn new(id: CanId, payload: Vec<u8>) -> Result<Self> {
        if payload.len() > MAX_PAYLOAD {
            return Err(DynarError::invalid_config(format!(
                "frame payload of {} bytes exceeds the {MAX_PAYLOAD}-byte limit",
                payload.len()
            )));
        }
        Ok(Frame { id, payload })
    }

    /// The frame identifier.
    pub fn id(&self) -> CanId {
        self.id
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The data length code (payload length in bytes).
    pub fn dlc(&self) -> usize {
        self.payload.len()
    }

    /// Consumes the frame and returns its payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame {} [{} bytes]", self.id, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_range_is_checked() {
        assert!(CanId::new(CanId::MAX).is_ok());
        assert!(CanId::new(CanId::MAX + 1).is_err());
    }

    #[test]
    fn lower_id_is_more_urgent() {
        assert!(CanId::new(0x10).unwrap() < CanId::new(0x20).unwrap());
    }

    #[test]
    fn payload_limit_is_enforced() {
        let id = CanId::new(1).unwrap();
        assert!(Frame::new(id, vec![0; MAX_PAYLOAD]).is_ok());
        assert!(Frame::new(id, vec![0; MAX_PAYLOAD + 1]).is_err());
    }

    #[test]
    fn accessors_expose_contents() {
        let frame = Frame::new(CanId::new(0x7FF).unwrap(), vec![9, 8, 7]).unwrap();
        assert_eq!(frame.id().raw(), 0x7FF);
        assert_eq!(frame.dlc(), 3);
        assert_eq!(frame.clone().into_payload(), vec![9, 8, 7]);
        assert_eq!(frame.to_string(), "frame 0x7FF [3 bytes]");
    }

    #[test]
    fn hex_formatting() {
        let id = CanId::new(0xAB).unwrap();
        assert_eq!(format!("{id:x}"), "ab");
        assert_eq!(format!("{id:X}"), "AB");
    }
}
