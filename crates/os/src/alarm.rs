//! Counters and alarms: the periodic-activation machinery of OSEK.
//!
//! Alarms observe the kernel's single system counter (driven by the
//! simulation clock) and, on expiry, either activate a task or set an event
//! for a task — exactly the two alarm actions used by AUTOSAR's RTE to
//! trigger periodic runnables.

use std::fmt;

use dynar_foundation::time::Tick;

use crate::event::EventMask;
use crate::task::TaskId;

/// Identifier of an alarm within one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AlarmId(u16);

impl AlarmId {
    /// Creates an alarm identifier from its kernel-local index.
    pub fn new(index: u16) -> Self {
        AlarmId(index)
    }

    /// Returns the kernel-local index.
    pub fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for AlarmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alarm{}", self.0)
    }
}

/// What an alarm does when it expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlarmAction {
    /// Activate the given task.
    ActivateTask(TaskId),
    /// Set the given events for the given (extended) task.
    SetEvent(TaskId, EventMask),
}

impl AlarmAction {
    /// The task targeted by this action.
    pub fn task(self) -> TaskId {
        match self {
            AlarmAction::ActivateTask(t) | AlarmAction::SetEvent(t, _) => t,
        }
    }
}

/// One configured alarm.
///
/// # Example
/// ```
/// use dynar_os::alarm::{Alarm, AlarmAction};
/// use dynar_os::task::TaskId;
/// use dynar_foundation::time::Tick;
///
/// // Fires at t=10 and then every 10 ticks.
/// let mut alarm = Alarm::relative(10, Some(10), AlarmAction::ActivateTask(TaskId::new(0)), Tick::ZERO);
/// assert!(alarm.poll(Tick::new(9)).is_none());
/// assert!(alarm.poll(Tick::new(10)).is_some());
/// assert!(alarm.poll(Tick::new(19)).is_none());
/// assert!(alarm.poll(Tick::new(20)).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    next_expiry: Tick,
    cycle: Option<u64>,
    action: AlarmAction,
    armed: bool,
    expirations: u64,
}

impl Alarm {
    /// Creates an alarm expiring `offset` ticks after `now`, optionally
    /// repeating every `cycle` ticks.
    pub fn relative(offset: u64, cycle: Option<u64>, action: AlarmAction, now: Tick) -> Self {
        Alarm {
            next_expiry: now.advance(offset),
            cycle,
            action,
            armed: true,
            expirations: 0,
        }
    }

    /// Creates an alarm expiring at the absolute time `at`, optionally
    /// repeating every `cycle` ticks.
    pub fn absolute(at: Tick, cycle: Option<u64>, action: AlarmAction) -> Self {
        Alarm {
            next_expiry: at,
            cycle,
            action,
            armed: true,
            expirations: 0,
        }
    }

    /// The action performed on expiry.
    pub fn action(&self) -> AlarmAction {
        self.action
    }

    /// Whether the alarm is still armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The next expiry time, if armed.
    pub fn next_expiry(&self) -> Option<Tick> {
        self.armed.then_some(self.next_expiry)
    }

    /// Total number of expirations so far.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Cancels the alarm; it will no longer expire.
    pub fn cancel(&mut self) {
        self.armed = false;
    }

    /// Checks the alarm against the current time, returning its action if it
    /// expires at `now`.  Cyclic alarms re-arm themselves; one-shot alarms
    /// disarm.
    pub fn poll(&mut self, now: Tick) -> Option<AlarmAction> {
        if !self.armed || now < self.next_expiry {
            return None;
        }
        self.expirations += 1;
        match self.cycle {
            Some(cycle) if cycle > 0 => {
                // Catch up without firing multiple times in one poll: the
                // kernel polls every tick, so a single step is sufficient and
                // keeps bursts bounded even if a caller skips ticks.
                self.next_expiry = now.advance(cycle);
            }
            _ => self.armed = false,
        }
        Some(self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activate(task: u16) -> AlarmAction {
        AlarmAction::ActivateTask(TaskId::new(task))
    }

    #[test]
    fn one_shot_alarm_fires_once() {
        let mut alarm = Alarm::relative(5, None, activate(1), Tick::ZERO);
        assert!(alarm.poll(Tick::new(4)).is_none());
        assert_eq!(alarm.poll(Tick::new(5)), Some(activate(1)));
        assert!(alarm.poll(Tick::new(6)).is_none());
        assert!(!alarm.is_armed());
        assert_eq!(alarm.expirations(), 1);
    }

    #[test]
    fn cyclic_alarm_rearms() {
        let mut alarm = Alarm::relative(2, Some(3), activate(0), Tick::ZERO);
        let mut fired = Vec::new();
        for t in 0..12 {
            if alarm.poll(Tick::new(t)).is_some() {
                fired.push(t);
            }
        }
        assert_eq!(fired, vec![2, 5, 8, 11]);
        assert_eq!(alarm.expirations(), 4);
    }

    #[test]
    fn absolute_alarm_expires_at_exact_time() {
        let mut alarm = Alarm::absolute(Tick::new(7), None, activate(2));
        assert_eq!(alarm.next_expiry(), Some(Tick::new(7)));
        assert!(alarm.poll(Tick::new(6)).is_none());
        assert!(alarm.poll(Tick::new(7)).is_some());
        assert_eq!(alarm.next_expiry(), None);
    }

    #[test]
    fn cancelled_alarm_never_fires() {
        let mut alarm = Alarm::relative(1, Some(1), activate(0), Tick::ZERO);
        alarm.cancel();
        assert!(alarm.poll(Tick::new(100)).is_none());
        assert_eq!(alarm.expirations(), 0);
    }

    #[test]
    fn set_event_action_carries_task_and_mask() {
        let action = AlarmAction::SetEvent(TaskId::new(3), EventMask::bit(1));
        assert_eq!(action.task(), TaskId::new(3));
    }

    #[test]
    fn late_poll_fires_and_schedules_from_now() {
        let mut alarm = Alarm::relative(2, Some(10), activate(0), Tick::ZERO);
        assert!(alarm.poll(Tick::new(25)).is_some());
        assert_eq!(alarm.next_expiry(), Some(Tick::new(35)));
    }
}
