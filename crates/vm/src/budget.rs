//! Best-effort resource budgets for plug-in execution.
//!
//! The paper assigns each plug-in SW-C's virtual machine "its own memory, as
//! well as computational and communication resources" so that plug-ins run
//! best-effort without competing with the built-in functionality (§3.1.1).
//! [`Budget`] is the concrete form of that assignment in this reproduction:
//! it bounds how many instructions a plug-in may execute per scheduling slot,
//! how deep its stack may grow, how many locals it may use and how many bytes
//! of values it may hold alive.

/// Resource limits applied to one plug-in virtual machine instance.
///
/// # Example
/// ```
/// use dynar_vm::budget::Budget;
///
/// let tight = Budget::new(100).with_max_stack(8).with_max_memory_bytes(1024);
/// assert_eq!(tight.instructions_per_slot(), 100);
/// assert_eq!(tight.max_stack(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    instructions_per_slot: u64,
    max_stack: usize,
    local_count: usize,
    max_memory_bytes: usize,
}

impl Budget {
    /// Creates a budget with the given per-slot instruction limit and
    /// defaults for the structural limits.
    pub fn new(instructions_per_slot: u64) -> Self {
        Budget {
            instructions_per_slot: instructions_per_slot.max(1),
            ..Budget::default()
        }
    }

    /// Sets the maximum stack depth.
    #[must_use]
    pub fn with_max_stack(mut self, max_stack: usize) -> Self {
        self.max_stack = max_stack.max(2);
        self
    }

    /// Sets the number of local variables available to the plug-in.
    #[must_use]
    pub fn with_locals(mut self, local_count: usize) -> Self {
        self.local_count = local_count.clamp(1, 256);
        self
    }

    /// Sets the maximum number of value bytes the plug-in may hold alive
    /// across its stack and locals.
    #[must_use]
    pub fn with_max_memory_bytes(mut self, bytes: usize) -> Self {
        self.max_memory_bytes = bytes.max(64);
        self
    }

    /// Instructions the plug-in may execute in one scheduling slot.
    pub fn instructions_per_slot(&self) -> u64 {
        self.instructions_per_slot
    }

    /// Maximum stack depth.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Number of local variable slots.
    pub fn local_count(&self) -> usize {
        self.local_count
    }

    /// Maximum bytes of live values.
    pub fn max_memory_bytes(&self) -> usize {
        self.max_memory_bytes
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            instructions_per_slot: 10_000,
            max_stack: 256,
            local_count: 32,
            max_memory_bytes: 64 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous_but_bounded() {
        let budget = Budget::default();
        assert!(budget.instructions_per_slot() >= 1000);
        assert!(budget.max_stack() >= 16);
        assert!(budget.local_count() >= 8);
        assert!(budget.max_memory_bytes() >= 4096);
    }

    #[test]
    fn builders_clamp_to_sane_minimums() {
        let budget = Budget::new(0)
            .with_max_stack(0)
            .with_locals(0)
            .with_max_memory_bytes(0);
        assert_eq!(budget.instructions_per_slot(), 1);
        assert_eq!(budget.max_stack(), 2);
        assert_eq!(budget.local_count(), 1);
        assert_eq!(budget.max_memory_bytes(), 64);
    }

    #[test]
    fn locals_are_capped_at_instruction_addressable_range() {
        assert_eq!(Budget::default().with_locals(1000).local_count(), 256);
    }
}
