//! Error type shared by the automata crate.

use std::fmt;

/// Errors produced while parsing (regular expressions, XML, tree terms) or
/// manipulating automata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutomataError {
    /// Textual input could not be parsed. The message names the syntax
    /// (`regex:`, `XML:`, `term:`) and the problem.
    Parse {
        /// Human readable description of the problem, prefixed with the
        /// syntax being parsed.
        message: String,
        /// Byte offset in the input at which the problem was detected.
        position: usize,
    },
    /// A regular expression was required to be deterministic
    /// (one-unambiguous) but is not.
    NotDeterministic(String),
    /// An operation referred to a state that does not exist in the automaton.
    InvalidState(usize),
    /// A symbol was used that is not part of the relevant alphabet.
    UnknownSymbol(String),
    /// The process-wide symbol intern table is at capacity; no further
    /// distinct name can be interned. Surfaced by `Symbol::try_new` on the
    /// parser paths so untrusted input rejects instead of aborting the
    /// process.
    SymbolTableFull {
        /// The hard capacity of the intern table (`Symbol::MAX_SYMBOLS`).
        limit: usize,
    },
    /// A governed operation exceeded its [`Budget`](crate::limits::Budget):
    /// a quota tripped, the wall-clock deadline passed, or a cooperative
    /// cancellation was raised. Surfaced by the `*_with_budget` entry
    /// points; the unlimited default budget never produces it.
    BudgetExceeded {
        /// The resource dimension that tripped.
        resource: crate::limits::Resource,
        /// The configured limit (milliseconds for deadlines; 0 for
        /// cancellations, which have no numeric limit).
        limit: u64,
        /// The amount spent when the trip was detected.
        spent: u64,
    },
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            AutomataError::NotDeterministic(re) => {
                write!(f, "regular expression `{re}` is not deterministic (one-unambiguous)")
            }
            AutomataError::InvalidState(s) => write!(f, "invalid state id {s}"),
            AutomataError::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
            AutomataError::SymbolTableFull { limit } => {
                write!(f, "symbol intern table is full ({limit} distinct names); rejecting new name")
            }
            AutomataError::BudgetExceeded { resource, limit, spent } => match resource {
                crate::limits::Resource::Cancelled => write!(f, "operation cancelled"),
                crate::limits::Resource::Deadline => {
                    write!(f, "deadline exceeded after {spent} ms (budget {limit} ms)")
                }
                _ => write!(f, "budget exceeded: {spent} {resource} spent of {limit} allowed"),
            },
        }
    }
}

impl std::error::Error for AutomataError {}
