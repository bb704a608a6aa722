//! The shared error type of the reproduction.
//!
//! Every crate in the workspace reports failures through [`DynarError`] so
//! that errors can flow across subsystem boundaries (server → ECM → PIRTE →
//! RTE) without conversion boilerplate, while still carrying enough structure
//! for the trusted server to present meaningful failure reasons to the user
//! (paper §3.2.2: "If the compatibility check fails, the server presents the
//! reason for the failure to the user").

use std::error::Error;
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, DynarError>;

/// Errors produced anywhere in the dynamic AUTOSAR stack.
///
/// # Example
/// ```
/// use dynar_foundation::error::DynarError;
///
/// let err = DynarError::not_found("plugin", "COM");
/// assert_eq!(err.to_string(), "plugin not found: COM");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum DynarError {
    /// A value had a different runtime type than the consumer expected.
    TypeMismatch {
        /// The type the consumer expected.
        expected: &'static str,
        /// The type that was actually present.
        found: &'static str,
    },
    /// An entity (ECU, SW-C, port, plug-in, app, vehicle, user, ...) was not found.
    NotFound {
        /// The kind of entity that was looked up.
        kind: &'static str,
        /// The identifier that failed to resolve.
        id: String,
    },
    /// An entity with the same identifier already exists.
    Duplicate {
        /// The kind of entity that collided.
        kind: &'static str,
        /// The identifier that collided.
        id: String,
    },
    /// A statically declared configuration is internally inconsistent.
    InvalidConfiguration(String),
    /// A port was used against its declared direction (read on a provided
    /// port, write on a required port, ...).
    PortDirection {
        /// Display form of the offending port.
        port: String,
        /// The direction the operation required.
        expected: &'static str,
    },
    /// A signal was routed to a port that has no connection.
    NotConnected(String),
    /// The trusted server's compatibility check rejected a deployment.
    Incompatible(String),
    /// A plug-in requires another plug-in that is not installed.
    MissingDependency {
        /// The plug-in being deployed.
        plugin: String,
        /// The missing prerequisite.
        requires: String,
    },
    /// A plug-in conflicts with an already installed plug-in.
    PluginConflict {
        /// The plug-in being deployed.
        plugin: String,
        /// The installed plug-in it conflicts with.
        conflicts_with: String,
    },
    /// Two active rollout campaigns target the same app on overlapping
    /// vehicles; accepting the second would make the desired manifests
    /// last-writer-wins.
    CampaignConflict {
        /// The campaign being created.
        campaign: String,
        /// The already-active campaign it collides with.
        conflicts_with: String,
        /// The contested application.
        app: String,
    },
    /// A plug-in cannot be uninstalled because others depend on it.
    DependentsExist {
        /// The plug-in whose removal was requested.
        plugin: String,
        /// Installed plug-ins that depend on it.
        dependents: Vec<String>,
    },
    /// A plug-in life-cycle transition was requested from an incompatible state.
    LifecycleViolation {
        /// The plug-in concerned.
        plugin: String,
        /// The state it was in.
        from: String,
        /// The transition that was requested.
        requested: String,
    },
    /// A plug-in exhausted one of its best-effort resource budgets.
    BudgetExhausted {
        /// The plug-in concerned.
        plugin: String,
        /// Which budget ran out ("instructions", "memory", "mailbox", ...).
        what: &'static str,
    },
    /// The plug-in virtual machine hit a fault (bad opcode, stack error, ...).
    VmFault(String),
    /// A simulated transport (server link, phone link) is closed or unknown.
    TransportClosed(String),
    /// A message did not follow the ECM/trusted-server wire protocol.
    ProtocolViolation(String),
    /// A management operation exhausted its retransmission budget without an
    /// acknowledgement from the vehicle.
    RetryExhausted {
        /// The operation that was abandoned (e.g. `install of OP on ECU2`).
        operation: String,
        /// How many delivery attempts were made.
        attempts: u32,
    },
    /// The vehicle's transport endpoint is gone for good: outstanding
    /// operations are failed immediately instead of burning the retry budget
    /// against a dead link (distinct from [`DynarError::RetryExhausted`],
    /// which means the link *might* still be there).
    VehicleUnreachable {
        /// The vehicle whose endpoint disappeared.
        vehicle: String,
    },
    /// An operating-system I/O failure (journal file sink, sockets), carrying
    /// the display form of the underlying OS error.
    Io(String),
}

impl DynarError {
    /// Shorthand constructor for [`DynarError::NotFound`].
    pub fn not_found(kind: &'static str, id: impl fmt::Display) -> Self {
        DynarError::NotFound {
            kind,
            id: id.to_string(),
        }
    }

    /// Shorthand constructor for [`DynarError::Duplicate`].
    pub fn duplicate(kind: &'static str, id: impl fmt::Display) -> Self {
        DynarError::Duplicate {
            kind,
            id: id.to_string(),
        }
    }

    /// Shorthand constructor for [`DynarError::InvalidConfiguration`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        DynarError::InvalidConfiguration(reason.into())
    }

    /// Returns `true` if the error represents a deployment rejection that the
    /// trusted server should surface to the user rather than a programming or
    /// platform fault.
    pub fn is_deployment_rejection(&self) -> bool {
        matches!(
            self,
            DynarError::Incompatible(_)
                | DynarError::MissingDependency { .. }
                | DynarError::PluginConflict { .. }
                | DynarError::DependentsExist { .. }
        )
    }
}

impl fmt::Display for DynarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynarError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            DynarError::NotFound { kind, id } => write!(f, "{kind} not found: {id}"),
            DynarError::Duplicate { kind, id } => write!(f, "duplicate {kind}: {id}"),
            DynarError::InvalidConfiguration(reason) => {
                write!(f, "invalid configuration: {reason}")
            }
            DynarError::PortDirection { port, expected } => {
                write!(
                    f,
                    "port {port} used against its direction, expected {expected}"
                )
            }
            DynarError::NotConnected(what) => write!(f, "no connection for {what}"),
            DynarError::Incompatible(reason) => write!(f, "incompatible deployment: {reason}"),
            DynarError::MissingDependency { plugin, requires } => {
                write!(
                    f,
                    "plug-in {plugin} requires {requires} which is not installed"
                )
            }
            DynarError::PluginConflict {
                plugin,
                conflicts_with,
            } => write!(
                f,
                "plug-in {plugin} conflicts with installed {conflicts_with}"
            ),
            DynarError::CampaignConflict {
                campaign,
                conflicts_with,
                app,
            } => write!(
                f,
                "campaign {campaign} conflicts with active campaign {conflicts_with} over app {app}"
            ),
            DynarError::DependentsExist { plugin, dependents } => write!(
                f,
                "plug-in {plugin} cannot be removed, depended on by {}",
                dependents.join(", ")
            ),
            DynarError::LifecycleViolation {
                plugin,
                from,
                requested,
            } => write!(
                f,
                "plug-in {plugin} cannot perform {requested} from state {from}"
            ),
            DynarError::BudgetExhausted { plugin, what } => {
                write!(f, "plug-in {plugin} exhausted its {what} budget")
            }
            DynarError::VmFault(reason) => write!(f, "virtual machine fault: {reason}"),
            DynarError::TransportClosed(which) => write!(f, "transport closed: {which}"),
            DynarError::ProtocolViolation(reason) => write!(f, "protocol violation: {reason}"),
            DynarError::RetryExhausted {
                operation,
                attempts,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempts: {operation}"
            ),
            DynarError::VehicleUnreachable { vehicle } => {
                write!(f, "vehicle unreachable: {vehicle}")
            }
            DynarError::Io(reason) => write!(f, "i/o failure: {reason}"),
        }
    }
}

impl From<std::io::Error> for DynarError {
    fn from(err: std::io::Error) -> Self {
        DynarError::Io(err.to_string())
    }
}

impl Error for DynarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<DynarError> = vec![
            DynarError::TypeMismatch {
                expected: "i64",
                found: "text",
            },
            DynarError::not_found("plugin", "OP"),
            DynarError::duplicate("app", "remote-control"),
            DynarError::invalid_config("no ECM declared"),
            DynarError::PortDirection {
                port: "ECU1/SWC0:S2".into(),
                expected: "provided",
            },
            DynarError::NotConnected("P3".into()),
            DynarError::Incompatible("missing virtual port WheelsReq".into()),
            DynarError::MissingDependency {
                plugin: "OP".into(),
                requires: "COM".into(),
            },
            DynarError::PluginConflict {
                plugin: "ECO".into(),
                conflicts_with: "SPORT".into(),
            },
            DynarError::CampaignConflict {
                campaign: "rollout-2".into(),
                conflicts_with: "rollout-1".into(),
                app: "telemetry-v2".into(),
            },
            DynarError::DependentsExist {
                plugin: "COM".into(),
                dependents: vec!["OP".into()],
            },
            DynarError::LifecycleViolation {
                plugin: "COM".into(),
                from: "Stopped".into(),
                requested: "suspend".into(),
            },
            DynarError::BudgetExhausted {
                plugin: "COM".into(),
                what: "instructions",
            },
            DynarError::VmFault("stack underflow".into()),
            DynarError::TransportClosed("phone".into()),
            DynarError::ProtocolViolation("unexpected ack".into()),
            DynarError::RetryExhausted {
                operation: "install of OP on ECU2".into(),
                attempts: 8,
            },
            DynarError::VehicleUnreachable {
                vehicle: "VIN-1".into(),
            },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn deployment_rejections_are_classified() {
        assert!(DynarError::Incompatible("x".into()).is_deployment_rejection());
        assert!(DynarError::MissingDependency {
            plugin: "a".into(),
            requires: "b".into()
        }
        .is_deployment_rejection());
        assert!(!DynarError::VmFault("x".into()).is_deployment_rejection());
        assert!(!DynarError::not_found("port", "P9").is_deployment_rejection());
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<DynarError>();
    }

    #[test]
    fn clone_preserves_structure() {
        let err = DynarError::DependentsExist {
            plugin: "COM".into(),
            dependents: vec!["OP".into(), "LOG".into()],
        };
        assert_eq!(err, err.clone());
    }
}
