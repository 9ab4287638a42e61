//! Typed errors for host-facing PIM-trie operations.
//!
//! Two families share the enum:
//!
//! * **input errors** — malformed batches or configurations, detected
//!   before any BSP round runs (the batch is untouched);
//! * **fault-tolerance errors** — the sealed-wire recovery ladder
//!   (see [`wire_guard`](crate::wire_guard)) exhausted its budget. These
//!   can only occur when [`PimTrieConfig::fault_tolerance`]
//!   (crate::PimTrieConfig) is on and a
//!   [`FaultPlan`](pim_sim::FaultPlan) is injecting faults.

use std::fmt;

/// Error returned by the fallible (`try_*`) PIM-trie operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PimTrieError {
    /// `keys` and `values` of an insert batch differ in length.
    MismatchedBatch {
        /// number of keys supplied
        keys: usize,
        /// number of values supplied
        values: usize,
    },
    /// A key in the batch is the empty bit string (index into the batch).
    EmptyKey(usize),
    /// A value in the batch is the reserved mirror sentinel `u64::MAX`
    /// (index into the batch).
    ReservedValue(usize),
    /// The configuration fails validation (message says which knob).
    BadConfig(String),
    /// A round could not be completed within the retry budget: some
    /// module kept returning corrupt or missing replies. Carries the
    /// modules that still owed answers when the budget ran out, so
    /// callers can scope the failure (quarantine the modules, fail only
    /// the keys routed through them) instead of aborting a whole batch.
    RecoveryExhausted {
        /// round label that failed
        round: String,
        /// retries attempted before giving up
        attempts: u32,
        /// modules with unanswered requests at exhaustion (sorted)
        modules: Vec<u32>,
    },
    /// A module came back from a crash with blank state; the operation
    /// was aborted. Surfaced only if the rebuild ladder itself fails —
    /// normally the trie rebuilds from its journal and retries the
    /// operation transparently.
    ModuleLost {
        /// the module that lost its state
        module: u32,
    },
    /// A module's reply violated the request/response protocol (wrong
    /// variant, or a query left unanswered). Always a bug; surfaced as
    /// an error so wire-path callers fail the operation cleanly instead
    /// of unwinding mid-batch.
    Protocol(String),
}

impl fmt::Display for PimTrieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimTrieError::MismatchedBatch { keys, values } => {
                write!(f, "insert batch has {keys} keys but {values} values")
            }
            PimTrieError::EmptyKey(i) => {
                write!(f, "key {i} in the batch is the empty bit string")
            }
            PimTrieError::ReservedValue(i) => {
                write!(
                    f,
                    "value {i} in the batch is u64::MAX, reserved for mirror leaves"
                )
            }
            PimTrieError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PimTrieError::RecoveryExhausted {
                round,
                attempts,
                modules,
            } => {
                write!(
                    f,
                    "round {round:?} failed after {attempts} recovery retries \
                     (modules {modules:?} still unanswered)"
                )
            }
            PimTrieError::ModuleLost { module } => {
                write!(f, "module {module} lost its state and rebuild failed")
            }
            PimTrieError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for PimTrieError {}

/// A reply that is missing, or of the wrong variant for its round.
pub(crate) fn unexpected(round: &str) -> PimTrieError {
    PimTrieError::Protocol(format!("{round}: missing or unexpected response"))
}
