//! Mapping of SW-C signals onto in-vehicle network frames.
//!
//! Three pieces live here:
//!
//! * a compact binary codec for [`Value`]s ([`encode_value`] /
//!   [`decode_value`]), used whenever a signal leaves its ECU;
//! * an ISO-TP-like segmentation layer ([`Segmenter`] / [`Reassembler`]) so
//!   that payloads larger than one frame — plug-in installation packages in
//!   particular — can cross the bus;
//! * the system-level description of which signal travels on which frame id
//!   between which ECUs ([`SystemMapping`]), the information an AUTOSAR
//!   system description would contain.

use std::collections::HashMap;

use dynar_bus::frame::{CanId, Frame, MAX_PAYLOAD};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::EcuId;

// ---------------------------------------------------------------------------
// Value codec (shared with the rest of the stack via dynar-foundation)
// ---------------------------------------------------------------------------

pub use dynar_foundation::codec::{decode_value, encode_value};

// ---------------------------------------------------------------------------
// Segmentation
// ---------------------------------------------------------------------------

/// Bytes of segmentation header per frame: message id, chunk index and chunk
/// count, two bytes each.
pub const SEGMENT_HEADER: usize = 6;

/// Usable payload bytes per frame after the segmentation header.
pub const SEGMENT_DATA: usize = MAX_PAYLOAD - SEGMENT_HEADER;

/// Splits arbitrarily long payloads into bus frames.
///
/// # Example
/// ```
/// use dynar_bus::frame::CanId;
/// use dynar_rte::com_mapping::{Reassembler, Segmenter};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let id = CanId::new(0x200)?;
/// let payload: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
/// let mut segmenter = Segmenter::new();
/// let mut reassembler = Reassembler::new();
///
/// let mut result = None;
/// for frame in segmenter.segment(id, &payload)? {
///     result = reassembler.accept(&frame)?;
/// }
/// assert_eq!(result, Some((id, payload)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Segmenter {
    next_message: HashMap<CanId, u16>,
}

impl Segmenter {
    /// Creates a segmenter.
    pub fn new() -> Self {
        Segmenter::default()
    }

    /// Splits `payload` into frames carrying the given identifier.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if the payload would need
    /// more than `u16::MAX` chunks.
    pub fn segment(&mut self, id: CanId, payload: &[u8]) -> Result<Vec<Frame>> {
        let chunk_count = payload.len().div_ceil(SEGMENT_DATA).max(1);
        if chunk_count > u16::MAX as usize {
            return Err(DynarError::invalid_config(format!(
                "payload of {} bytes needs {chunk_count} chunks, more than a u16 can number",
                payload.len()
            )));
        }
        let message = {
            let counter = self.next_message.entry(id).or_insert(0);
            let current = *counter;
            *counter = counter.wrapping_add(1);
            current
        };
        let mut frames = Vec::with_capacity(chunk_count);
        for chunk_index in 0..chunk_count {
            let start = chunk_index * SEGMENT_DATA;
            let end = (start + SEGMENT_DATA).min(payload.len());
            let mut data = Vec::with_capacity(SEGMENT_HEADER + (end - start));
            data.extend_from_slice(&message.to_le_bytes());
            data.extend_from_slice(&(chunk_index as u16).to_le_bytes());
            data.extend_from_slice(&(chunk_count as u16).to_le_bytes());
            data.extend_from_slice(&payload[start..end]);
            frames.push(Frame::new(id, data)?);
        }
        Ok(frames)
    }
}

#[derive(Debug, Clone)]
struct PartialMessage {
    message: u16,
    total: u16,
    chunks: Vec<Option<Vec<u8>>>,
}

/// Reassembles frames produced by a [`Segmenter`] back into payloads.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    in_progress: HashMap<CanId, PartialMessage>,
    /// Messages abandoned because a newer message started before they
    /// completed (typically caused by dropped frames).
    pub incomplete_dropped: u64,
}

impl Reassembler {
    /// Creates a reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Accepts one frame.  Returns the complete payload once the last chunk
    /// of a message has arrived.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for frames that do not carry
    /// a valid segmentation header.
    pub fn accept(&mut self, frame: &Frame) -> Result<Option<(CanId, Vec<u8>)>> {
        let payload = frame.payload();
        if payload.len() < SEGMENT_HEADER {
            return Err(DynarError::ProtocolViolation(
                "frame shorter than the segmentation header".into(),
            ));
        }
        let message = u16::from_le_bytes([payload[0], payload[1]]);
        let index = u16::from_le_bytes([payload[2], payload[3]]);
        let total = u16::from_le_bytes([payload[4], payload[5]]);
        if total == 0 || index >= total {
            return Err(DynarError::ProtocolViolation(format!(
                "chunk index {index} out of range for {total} chunks"
            )));
        }
        let data = payload[SEGMENT_HEADER..].to_vec();

        let entry = self
            .in_progress
            .entry(frame.id())
            .or_insert_with(|| PartialMessage {
                message,
                total,
                chunks: vec![None; total as usize],
            });
        if entry.message != message || entry.total != total {
            self.incomplete_dropped += 1;
            *entry = PartialMessage {
                message,
                total,
                chunks: vec![None; total as usize],
            };
        }
        entry.chunks[index as usize] = Some(data);

        if entry.chunks.iter().all(Option::is_some) {
            let complete = self
                .in_progress
                .remove(&frame.id())
                .expect("entry present, just updated");
            let mut payload = Vec::new();
            for chunk in complete.chunks.into_iter().flatten() {
                payload.extend_from_slice(&chunk);
            }
            Ok(Some((frame.id(), payload)))
        } else {
            Ok(None)
        }
    }
}

// ---------------------------------------------------------------------------
// System mapping
// ---------------------------------------------------------------------------

/// One end of a signal route: a port on a named component of an ECU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Hosting ECU.
    pub ecu: EcuId,
    /// Component instance name on that ECU.
    pub component: String,
    /// Port name on that component.
    pub port: String,
}

impl Endpoint {
    /// Creates an endpoint description.
    pub fn new(ecu: EcuId, component: impl Into<String>, port: impl Into<String>) -> Self {
        Endpoint {
            ecu,
            component: component.into(),
            port: port.into(),
        }
    }
}

/// One system-level signal route: a sender endpoint, the frame id the signal
/// travels on, and the receiving endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalRoute {
    /// Human-readable signal name.
    pub name: String,
    /// Frame id carrying the signal on the bus.
    pub frame: CanId,
    /// The producing endpoint.
    pub sender: Endpoint,
    /// The consuming endpoints.
    pub receivers: Vec<Endpoint>,
}

/// The inter-ECU communication matrix of one vehicle.
///
/// # Example
/// ```
/// use dynar_bus::frame::CanId;
/// use dynar_foundation::ids::EcuId;
/// use dynar_rte::com_mapping::{Endpoint, SystemMapping};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let mut mapping = SystemMapping::new();
/// mapping.add_route(
///     "plugin-data",
///     CanId::new(0x210)?,
///     Endpoint::new(EcuId::new(1), "plugin-swc-1", "S0"),
///     vec![Endpoint::new(EcuId::new(2), "plugin-swc-2", "S3")],
/// )?;
/// assert_eq!(mapping.routes().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemMapping {
    routes: Vec<SignalRoute>,
}

impl SystemMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        SystemMapping::default()
    }

    /// Adds a route.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the frame id or signal name is
    /// already used by another route.
    pub fn add_route(
        &mut self,
        name: impl Into<String>,
        frame: CanId,
        sender: Endpoint,
        receivers: Vec<Endpoint>,
    ) -> Result<()> {
        let name = name.into();
        if self.routes.iter().any(|r| r.frame == frame) {
            return Err(DynarError::duplicate("frame id", frame));
        }
        if self.routes.iter().any(|r| r.name == name) {
            return Err(DynarError::duplicate("signal route", &name));
        }
        self.routes.push(SignalRoute {
            name,
            frame,
            sender,
            receivers,
        });
        Ok(())
    }

    /// All configured routes.
    pub fn routes(&self) -> &[SignalRoute] {
        &self.routes
    }

    /// Looks up a route by signal name.
    pub fn route(&self, name: &str) -> Option<&SignalRoute> {
        self.routes.iter().find(|r| r.name == name)
    }

    /// The ECUs that appear anywhere in the mapping.
    pub fn ecus(&self) -> Vec<EcuId> {
        let mut ecus: Vec<EcuId> = self
            .routes
            .iter()
            .flat_map(|r| std::iter::once(r.sender.ecu).chain(r.receivers.iter().map(|e| e.ecu)))
            .collect();
        ecus.sort();
        ecus.dedup();
        ecus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payload_fits_one_frame() {
        let mut seg = Segmenter::new();
        let id = CanId::new(0x1).unwrap();
        let frames = seg.segment(id, b"hi").unwrap();
        assert_eq!(frames.len(), 1);
        let mut re = Reassembler::new();
        assert_eq!(re.accept(&frames[0]).unwrap(), Some((id, b"hi".to_vec())));
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut seg = Segmenter::new();
        let id = CanId::new(0x2).unwrap();
        let frames = seg.segment(id, &[]).unwrap();
        assert_eq!(frames.len(), 1);
        let mut re = Reassembler::new();
        assert_eq!(re.accept(&frames[0]).unwrap(), Some((id, Vec::new())));
    }

    #[test]
    fn large_payload_round_trips() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let id = CanId::new(0x3).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let frames = seg.segment(id, &payload).unwrap();
        assert!(frames.len() > 1);
        let mut result = None;
        for frame in &frames {
            result = re.accept(frame).unwrap();
        }
        assert_eq!(result, Some((id, payload)));
    }

    #[test]
    fn interleaved_streams_on_different_ids_do_not_mix() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let a = CanId::new(0xA).unwrap();
        let b = CanId::new(0xB).unwrap();
        let pa: Vec<u8> = vec![1; 200];
        let pb: Vec<u8> = vec![2; 200];
        let fa = seg.segment(a, &pa).unwrap();
        let fb = seg.segment(b, &pb).unwrap();
        let mut out = Vec::new();
        for (x, y) in fa.iter().zip(fb.iter()) {
            if let Some(done) = re.accept(x).unwrap() {
                out.push(done);
            }
            if let Some(done) = re.accept(y).unwrap() {
                out.push(done);
            }
        }
        assert_eq!(out, vec![(a, pa), (b, pb)]);
    }

    #[test]
    fn lost_chunk_drops_stale_message_when_next_starts() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let id = CanId::new(0xC).unwrap();
        let first = seg.segment(id, &[1; 200]).unwrap();
        let second = seg.segment(id, &[2; 30]).unwrap();
        // Deliver only the first chunk of the first message, then the second
        // message in full.
        assert_eq!(re.accept(&first[0]).unwrap(), None);
        let done = re.accept(&second[0]).unwrap();
        assert_eq!(done, Some((id, vec![2; 30])));
        assert_eq!(re.incomplete_dropped, 1);
    }

    #[test]
    fn malformed_segment_headers_are_rejected() {
        let mut re = Reassembler::new();
        let id = CanId::new(0xD).unwrap();
        let short = Frame::new(id, vec![1, 2]).unwrap();
        assert!(re.accept(&short).is_err());
        // total = 0 is invalid.
        let bad = Frame::new(id, vec![0, 0, 0, 0, 0, 0, 1]).unwrap();
        assert!(re.accept(&bad).is_err());
    }

    #[test]
    fn system_mapping_rejects_duplicates() {
        let mut mapping = SystemMapping::new();
        let frame = CanId::new(0x100).unwrap();
        let sender = Endpoint::new(EcuId::new(1), "a", "out");
        mapping
            .add_route("s1", frame, sender.clone(), vec![])
            .unwrap();
        assert!(mapping
            .add_route("s2", frame, sender.clone(), vec![])
            .is_err());
        assert!(mapping
            .add_route("s1", CanId::new(0x101).unwrap(), sender, vec![])
            .is_err());
    }

    #[test]
    fn system_mapping_lists_ecus() {
        let mut mapping = SystemMapping::new();
        mapping
            .add_route(
                "s",
                CanId::new(0x1).unwrap(),
                Endpoint::new(EcuId::new(2), "a", "out"),
                vec![
                    Endpoint::new(EcuId::new(1), "b", "in"),
                    Endpoint::new(EcuId::new(2), "c", "in"),
                ],
            )
            .unwrap();
        assert_eq!(mapping.ecus(), vec![EcuId::new(1), EcuId::new(2)]);
        assert!(mapping.route("s").is_some());
        assert!(mapping.route("t").is_none());
    }
}
