//! Task model: identifiers, priorities, states and static configuration.

use std::fmt;

use crate::event::EventMask;

/// Identifier of a task within one kernel instance.
///
/// # Example
/// ```
/// use dynar_os::task::TaskId;
/// assert_eq!(TaskId::new(3).index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u16);

impl TaskId {
    /// Creates a task identifier from its kernel-local index.
    pub fn new(index: u16) -> Self {
        TaskId(index)
    }

    /// Returns the kernel-local index.
    pub fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A fixed task priority; larger values are more urgent, as in OSEK.
///
/// # Example
/// ```
/// use dynar_os::task::TaskPriority;
/// assert!(TaskPriority::new(10) > TaskPriority::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskPriority(u8);

impl TaskPriority {
    /// The lowest possible priority.
    pub const IDLE: TaskPriority = TaskPriority(0);

    /// Creates a priority level; larger is more urgent.
    pub fn new(level: u8) -> Self {
        TaskPriority(level)
    }

    /// Returns the numeric priority level.
    pub fn level(self) -> u8 {
        self.0
    }
}

impl fmt::Display for TaskPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// The OSEK task state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TaskState {
    /// Not activated; the task does not compete for the processor.
    #[default]
    Suspended,
    /// Activated and waiting for the processor.
    Ready,
    /// Currently dispatched.
    Running,
    /// Blocked on an event (extended tasks only).
    Waiting,
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TaskState::Suspended => "suspended",
            TaskState::Ready => "ready",
            TaskState::Running => "running",
            TaskState::Waiting => "waiting",
        };
        f.write_str(name)
    }
}

/// Static configuration of one task, as it would appear in an OIL file.
///
/// # Example
/// ```
/// use dynar_os::task::{TaskConfig, TaskPriority};
///
/// let cfg = TaskConfig::new("tenms", TaskPriority::new(5))
///     .extended()
///     .with_max_activations(2);
/// assert_eq!(cfg.name(), "tenms");
/// assert!(cfg.is_extended());
/// assert_eq!(cfg.max_activations(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskConfig {
    name: String,
    priority: TaskPriority,
    extended: bool,
    max_activations: u8,
}

impl TaskConfig {
    /// Creates a basic task configuration with a single allowed activation.
    pub fn new(name: impl Into<String>, priority: TaskPriority) -> Self {
        TaskConfig {
            name: name.into(),
            priority,
            extended: false,
            max_activations: 1,
        }
    }

    /// Marks the task as an extended task, able to wait for events.
    #[must_use]
    pub fn extended(mut self) -> Self {
        self.extended = true;
        self
    }

    /// Sets the number of activation requests that may be queued.
    #[must_use]
    pub fn with_max_activations(mut self, max: u8) -> Self {
        self.max_activations = max.max(1);
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's static priority.
    pub fn priority(&self) -> TaskPriority {
        self.priority
    }

    /// Whether the task may wait for events.
    pub fn is_extended(&self) -> bool {
        self.extended
    }

    /// How many activations may be pending at once.
    pub fn max_activations(&self) -> u8 {
        self.max_activations
    }
}

/// The runtime control block the kernel keeps per task.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaskControlBlock {
    pub(crate) config: TaskConfig,
    pub(crate) state: TaskState,
    pub(crate) pending_activations: u8,
    pub(crate) set_events: EventMask,
    pub(crate) waited_events: EventMask,
    /// Dynamic priority, raised by the priority-ceiling protocol.
    pub(crate) dynamic_priority: TaskPriority,
    pub(crate) activation_count: u64,
    pub(crate) preemption_count: u64,
}

impl TaskControlBlock {
    pub(crate) fn new(config: TaskConfig) -> Self {
        let priority = config.priority();
        TaskControlBlock {
            config,
            state: TaskState::Suspended,
            pending_activations: 0,
            set_events: EventMask::NONE,
            waited_events: EventMask::NONE,
            dynamic_priority: priority,
            activation_count: 0,
            preemption_count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_follows_osek() {
        assert!(TaskPriority::new(200) > TaskPriority::new(100));
        assert_eq!(TaskPriority::IDLE.level(), 0);
    }

    #[test]
    fn builder_configures_extended_tasks() {
        let cfg = TaskConfig::new("t", TaskPriority::new(1))
            .extended()
            .with_max_activations(0);
        assert!(cfg.is_extended());
        assert_eq!(cfg.max_activations(), 1, "clamped to at least one");
    }

    #[test]
    fn default_state_is_suspended() {
        assert_eq!(TaskState::default(), TaskState::Suspended);
    }

    #[test]
    fn control_block_starts_clean() {
        let tcb = TaskControlBlock::new(TaskConfig::new("t", TaskPriority::new(3)));
        assert_eq!(tcb.state, TaskState::Suspended);
        assert_eq!(tcb.pending_activations, 0);
        assert_eq!(tcb.dynamic_priority, TaskPriority::new(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(TaskId::new(2).to_string(), "task2");
        assert_eq!(TaskPriority::new(9).to_string(), "prio9");
        assert_eq!(TaskState::Waiting.to_string(), "waiting");
    }
}
