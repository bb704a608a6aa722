//! OSEK resources with the immediate priority-ceiling protocol.
//!
//! Resources guard critical sections shared between tasks (the RTE uses them
//! for exclusive areas around port buffers).  When a task takes a resource its
//! dynamic priority is raised to the resource's ceiling, preventing any task
//! that could also take the resource from preempting it — the OSEK way of
//! avoiding priority inversion without blocking.

use std::fmt;

use crate::task::{TaskId, TaskPriority};

/// Identifier of a resource within one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(u16);

impl ResourceId {
    /// Creates a resource identifier from its kernel-local index.
    pub fn new(index: u16) -> Self {
        ResourceId(index)
    }

    /// Returns the kernel-local index.
    pub fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resource{}", self.0)
    }
}

/// One configured resource with its priority ceiling.
///
/// # Example
/// ```
/// use dynar_os::resource::Resource;
/// use dynar_os::task::{TaskId, TaskPriority};
///
/// let mut res = Resource::new("port-buffer", TaskPriority::new(10));
/// assert!(res.try_acquire(TaskId::new(0)));
/// assert!(!res.try_acquire(TaskId::new(1)), "already held");
/// assert_eq!(res.release(TaskId::new(0)), Ok(()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    name: String,
    ceiling: TaskPriority,
    holder: Option<TaskId>,
    contention_count: u64,
}

impl Resource {
    /// Creates a resource with the given name and priority ceiling.
    pub fn new(name: impl Into<String>, ceiling: TaskPriority) -> Self {
        Resource {
            name: name.into(),
            ceiling,
            holder: None,
            contention_count: 0,
        }
    }

    /// The resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static priority ceiling of the resource.
    pub fn ceiling(&self) -> TaskPriority {
        self.ceiling
    }

    /// The task currently holding the resource, if any.
    pub fn holder(&self) -> Option<TaskId> {
        self.holder
    }

    /// How many acquisition attempts found the resource already held.
    pub fn contention_count(&self) -> u64 {
        self.contention_count
    }

    /// Attempts to acquire the resource for `task`.
    ///
    /// Returns `true` on success.  Under the immediate ceiling protocol a
    /// correctly configured system never observes contention (the ceiling
    /// prevents competitors from running); the counter exists to surface
    /// configuration mistakes.
    pub fn try_acquire(&mut self, task: TaskId) -> bool {
        match self.holder {
            None => {
                self.holder = Some(task);
                true
            }
            Some(holder) if holder == task => true,
            Some(_) => {
                self.contention_count += 1;
                false
            }
        }
    }

    /// Releases the resource held by `task`.
    ///
    /// # Errors
    ///
    /// Returns the actual holder (or `None`) if `task` does not hold the
    /// resource, so callers can report the misuse.
    pub fn release(&mut self, task: TaskId) -> Result<(), Option<TaskId>> {
        if self.holder == Some(task) {
            self.holder = None;
            Ok(())
        } else {
            Err(self.holder)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut res = Resource::new("r", TaskPriority::new(5));
        let t = TaskId::new(1);
        assert!(res.try_acquire(t));
        assert_eq!(res.holder(), Some(t));
        assert!(res.try_acquire(t), "re-acquisition by holder is idempotent");
        res.release(t).unwrap();
        assert_eq!(res.holder(), None);
    }

    #[test]
    fn contention_is_counted() {
        let mut res = Resource::new("r", TaskPriority::new(5));
        assert!(res.try_acquire(TaskId::new(0)));
        assert!(!res.try_acquire(TaskId::new(1)));
        assert!(!res.try_acquire(TaskId::new(2)));
        assert_eq!(res.contention_count(), 2);
    }

    #[test]
    fn release_by_non_holder_reports_holder() {
        let mut res = Resource::new("r", TaskPriority::new(5));
        assert!(res.try_acquire(TaskId::new(0)));
        assert_eq!(res.release(TaskId::new(1)), Err(Some(TaskId::new(0))));
        assert_eq!(res.release(TaskId::new(0)), Ok(()));
        assert_eq!(res.release(TaskId::new(0)), Err(None));
    }

    #[test]
    fn metadata_accessors() {
        let res = Resource::new("buf", TaskPriority::new(9));
        assert_eq!(res.name(), "buf");
        assert_eq!(res.ceiling(), TaskPriority::new(9));
        assert_eq!(ResourceId::new(4).to_string(), "resource4");
    }
}
