//! OSEK events: bit masks that extended tasks can wait for.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// A set of up to 32 events, represented as a bit mask exactly as in OSEK.
///
/// # Example
/// ```
/// use dynar_os::event::EventMask;
///
/// let rx = EventMask::bit(0);
/// let timeout = EventMask::bit(1);
/// let waited = rx | timeout;
/// assert!(waited.intersects(rx));
/// assert!(!waited.without(rx | timeout).any());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct EventMask(u32);

impl EventMask {
    /// The empty event set.
    pub const NONE: EventMask = EventMask(0);
    /// The full event set.
    pub const ALL: EventMask = EventMask(u32::MAX);

    /// Creates a mask from its raw bit pattern.
    pub fn from_bits(bits: u32) -> Self {
        EventMask(bits)
    }

    /// Creates a mask with the single event `index` (0..=31) set.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 32 or larger.
    pub fn bit(index: u8) -> Self {
        assert!(index < 32, "event index out of range: {index}");
        EventMask(1 << index)
    }

    /// Returns the raw bit pattern.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Returns `true` if any event is set.
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// Returns `true` if all events in `other` are also set in `self`.
    pub fn contains(self, other: EventMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if at least one event is set in both masks.
    pub fn intersects(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `self` with all events in `other` cleared.
    #[must_use]
    pub fn without(self, other: EventMask) -> EventMask {
        EventMask(self.0 & !other.0)
    }

    /// Number of events set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

impl BitOr for EventMask {
    type Output = EventMask;

    fn bitor(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 | rhs.0)
    }
}

impl BitOrAssign for EventMask {
    fn bitor_assign(&mut self, rhs: EventMask) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for EventMask {
    type Output = EventMask;

    fn bitand(self, rhs: EventMask) -> EventMask {
        EventMask(self.0 & rhs.0)
    }
}

impl Not for EventMask {
    type Output = EventMask;

    fn not(self) -> EventMask {
        EventMask(!self.0)
    }
}

impl fmt::Display for EventMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "events({:#010x})", self.0)
    }
}

impl fmt::Binary for EventMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for EventMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for EventMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Octal for EventMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_construction_and_union() {
        let m = EventMask::bit(0) | EventMask::bit(5);
        assert_eq!(m.bits(), 0b10_0001);
        assert_eq!(m.count(), 2);
    }

    #[test]
    #[should_panic(expected = "event index out of range")]
    fn bit_rejects_out_of_range() {
        let _ = EventMask::bit(32);
    }

    #[test]
    fn contains_and_intersects() {
        let set = EventMask::from_bits(0b1100);
        assert!(set.contains(EventMask::from_bits(0b0100)));
        assert!(!set.contains(EventMask::from_bits(0b0101)));
        assert!(set.intersects(EventMask::from_bits(0b0101)));
        assert!(!set.intersects(EventMask::from_bits(0b0011)));
    }

    #[test]
    fn without_clears_bits() {
        let set = EventMask::from_bits(0b1111);
        assert_eq!(set.without(EventMask::from_bits(0b0101)).bits(), 0b1010);
    }

    #[test]
    fn or_assign_accumulates() {
        let mut m = EventMask::NONE;
        m |= EventMask::bit(3);
        m |= EventMask::bit(3);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn formatting_variants() {
        let m = EventMask::from_bits(0xAB);
        assert_eq!(format!("{m:x}"), "ab");
        assert_eq!(format!("{m:X}"), "AB");
        assert_eq!(format!("{m:b}"), "10101011");
        assert_eq!(format!("{m:o}"), "253");
        assert!(m.to_string().contains("0x000000ab"));
    }
}
