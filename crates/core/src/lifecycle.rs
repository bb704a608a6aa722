//! Plug-in life-cycle states and transitions.
//!
//! The paper handles updates pragmatically "by mandating a plug-in to be
//! stopped before being updated, and then restarted fresh" (§5).  The state
//! machine here encodes that rule: a plug-in must pass through `Stopped`
//! before it may be updated or uninstalled, and a faulted plug-in can only be
//! restarted fresh.

use std::fmt;

use dynar_foundation::error::{DynarError, Result};

/// The life-cycle state of one installed plug-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PluginState {
    /// Installed but not yet started.
    #[default]
    Installed,
    /// Scheduled for execution by the PIRTE.
    Running,
    /// Stopped by management; keeps its configuration but is not scheduled.
    Stopped,
    /// Terminated after a fault or budget violation; not scheduled.
    Failed,
    /// Finished executing its program (`halt`); not scheduled.
    Finished,
}

impl PluginState {
    /// Returns `true` if the PIRTE should grant execution slots in this state.
    pub fn is_schedulable(self) -> bool {
        matches!(self, PluginState::Running)
    }

    /// Returns `true` if the plug-in may be uninstalled from this state
    /// without first being stopped.
    pub fn allows_uninstall(self) -> bool {
        !matches!(self, PluginState::Running)
    }

    /// Checks a requested transition, returning the new state when legal.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::LifecycleViolation`] for illegal transitions.
    pub fn transition(self, plugin: &str, request: LifecycleRequest) -> Result<PluginState> {
        use LifecycleRequest::*;
        use PluginState::*;
        let next = match (self, request) {
            (Installed, Start) => Some(Running),
            (Stopped, Start) => Some(Running),
            (Failed, Restart) | (Finished, Restart) | (Stopped, Restart) => Some(Running),
            (Running, Stop) => Some(Stopped),
            (Installed, Stop) => Some(Stopped),
            (Running, Fail) | (Installed, Fail) => Some(Failed),
            (Running, Finish) => Some(Finished),
            _ => None,
        };
        next.ok_or_else(|| DynarError::LifecycleViolation {
            plugin: plugin.to_owned(),
            from: self.to_string(),
            requested: request.to_string(),
        })
    }
}

impl fmt::Display for PluginState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PluginState::Installed => "installed",
            PluginState::Running => "running",
            PluginState::Stopped => "stopped",
            PluginState::Failed => "failed",
            PluginState::Finished => "finished",
        };
        f.write_str(name)
    }
}

/// A life-cycle transition request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleRequest {
    /// Begin scheduling the plug-in.
    Start,
    /// Stop scheduling the plug-in, keeping its configuration.
    Stop,
    /// Restart the plug-in from a fresh VM state.
    Restart,
    /// Record that the plug-in faulted.
    Fail,
    /// Record that the plug-in ran to completion.
    Finish,
}

impl fmt::Display for LifecycleRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LifecycleRequest::Start => "start",
            LifecycleRequest::Stop => "stop",
            LifecycleRequest::Restart => "restart",
            LifecycleRequest::Fail => "fail",
            LifecycleRequest::Finish => "finish",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LifecycleRequest::*;
    use PluginState::*;

    #[test]
    fn normal_life_cycle() {
        let state = Installed;
        let state = state.transition("p", Start).unwrap();
        assert_eq!(state, Running);
        let state = state.transition("p", Stop).unwrap();
        assert_eq!(state, Stopped);
        let state = state.transition("p", Start).unwrap();
        assert_eq!(state, Running);
        let state = state.transition("p", Finish).unwrap();
        assert_eq!(state, Finished);
        assert_eq!(state.transition("p", Restart).unwrap(), Running);
    }

    #[test]
    fn running_plugin_cannot_be_uninstalled_without_stop() {
        assert!(!Running.allows_uninstall());
        assert!(Stopped.allows_uninstall());
        assert!(Failed.allows_uninstall());
        assert!(Installed.allows_uninstall());
    }

    #[test]
    fn illegal_transitions_are_reported() {
        let err = Stopped.transition("COM", Finish).unwrap_err();
        match err {
            DynarError::LifecycleViolation {
                plugin,
                from,
                requested,
            } => {
                assert_eq!(plugin, "COM");
                assert_eq!(from, "stopped");
                assert_eq!(requested, "finish");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(Finished.transition("p", Start).is_err());
        assert!(
            Failed.transition("p", Start).is_err(),
            "failed plug-ins need a restart"
        );
    }

    #[test]
    fn fault_handling() {
        let state = Installed.transition("p", Start).unwrap();
        let state = state.transition("p", Fail).unwrap();
        assert_eq!(state, Failed);
        assert!(!state.is_schedulable());
        assert_eq!(state.transition("p", Restart).unwrap(), Running);
    }

    #[test]
    fn only_running_is_schedulable() {
        for state in [Installed, Stopped, Failed, Finished] {
            assert!(!state.is_schedulable(), "{state}");
        }
        assert!(Running.is_schedulable());
    }
}
