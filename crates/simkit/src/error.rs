//! Error and cancellation types.

use crate::kernel::ProcId;
use crate::time::SimTime;
use std::fmt;

/// Unwind sentinel raised inside a simulated process when it is killed.
///
/// Blocking primitives check the process's kill flag on every wake; when it
/// is set they `panic!` with a `Killed` payload. The process harness
/// downcasts panic payloads: a `Killed` payload is a *clean* death (node
/// failure, migration teardown), anything else is a genuine bug and aborts
/// the whole simulation with the original message.
///
/// Application code normally never observes `Killed`; it simply unwinds.
/// Code that must release non-RAII resources on death can use `catch_unwind`
/// and re-raise with [`Killed::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed {
    /// The process that was killed.
    pub pid: ProcId,
}

impl Killed {
    /// Re-raise the kill unwind (for use after a `catch_unwind` cleanup).
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(Box::new(self))
    }
}

impl fmt::Display for Killed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process {:?} killed", self.pid)
    }
}

/// Errors surfaced by [`crate::Simulation::run`].
#[derive(Debug)]
pub enum SimError {
    /// The event heap drained while live processes were still blocked with
    /// no pending wake: a genuine protocol deadlock. Lists the stuck
    /// processes to make failures diagnosable.
    Deadlock {
        /// Virtual time at which the simulation stalled.
        at: SimTime,
        /// `(pid, name)` of every blocked process.
        blocked: Vec<(ProcId, String)>,
    },
    /// A simulated process panicked with a non-[`Killed`] payload.
    ProcPanic {
        /// The offending process.
        pid: ProcId,
        /// Process name.
        name: String,
        /// Panic message, if it was a string payload.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                write!(
                    f,
                    "simulation deadlocked at {at}: {} blocked process(es):",
                    blocked.len()
                )?;
                for (pid, name) in blocked {
                    write!(f, " [{:?} {name}]", pid)?;
                }
                Ok(())
            }
            SimError::ProcPanic { pid, name, message } => {
                write!(f, "process {pid:?} ({name}) panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}
