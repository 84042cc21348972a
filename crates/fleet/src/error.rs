//! Fleet error type.

/// Errors raised by campaign parsing, journaling and execution.
///
/// Each variant maps to a distinct process exit code (see
/// [`FleetError::code`]) so scripts driving `psbi-fleet` can tell a
/// malformed spec from a corrupt journal without parsing stderr.
#[derive(Debug)]
pub enum FleetError {
    /// The campaign spec is malformed or inconsistent.
    Spec(String),
    /// The journal is malformed or belongs to a different campaign.
    Journal(String),
    /// A circuit descriptor failed to materialise or build a flow.
    Circuit(String),
    /// Filesystem failure (journal or spec IO).
    Io(std::io::Error),
    /// A journal record *inside* the valid region failed its checksum or
    /// no longer parses — mid-file corruption, not a torn tail.  The
    /// journal is left untouched; `record` is the 0-based index of the
    /// first bad record.
    Corrupt {
        /// Index of the first corrupt record.
        record: usize,
        /// What exactly failed on that record.
        detail: String,
    },
    /// A worker thread died outside any job (the per-job `catch_unwind` /
    /// retry / quarantine machinery never saw the panic).
    Worker(String),
    /// The independent result verifier flagged at least one job.
    Verify(String),
    /// The dispatch layer failed: a protocol violation, an unreachable or
    /// lost dispatcher, or a campaign the dispatcher rejected.  Worker
    /// deaths and dropped connections are NOT this error — those are
    /// recovered by lease expiry and re-dispatch.
    Dispatch(String),
}

impl FleetError {
    /// Stable nonzero process exit code for this error class.  Exit code
    /// 2 is reserved for CLI usage errors.
    pub fn code(&self) -> u8 {
        match self {
            FleetError::Spec(_) => 3,
            FleetError::Io(_) => 4,
            FleetError::Journal(_) => 5,
            FleetError::Circuit(_) => 6,
            FleetError::Corrupt { .. } => 7,
            FleetError::Worker(_) => 8,
            FleetError::Verify(_) => 9,
            FleetError::Dispatch(_) => 10,
        }
    }

    /// The message without its class prefix: the text a dispatcher sends
    /// in an `error` reply, from which the submitter rebuilds an error of
    /// the same class that displays exactly like this one.
    pub(crate) fn detail(&self) -> String {
        match self {
            FleetError::Spec(m)
            | FleetError::Journal(m)
            | FleetError::Circuit(m)
            | FleetError::Worker(m)
            | FleetError::Verify(m)
            | FleetError::Dispatch(m) => m.clone(),
            FleetError::Io(e) => e.to_string(),
            // The rebuilt error cannot carry the record index separately.
            FleetError::Corrupt { .. } => self.to_string(),
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Spec(m) => write!(f, "campaign spec error: {m}"),
            FleetError::Journal(m) => write!(f, "journal error: {m}"),
            FleetError::Circuit(m) => write!(f, "circuit error: {m}"),
            FleetError::Io(e) => write!(f, "io error: {e}"),
            FleetError::Corrupt { record, detail } => write!(
                f,
                "journal corrupt at record {record}: {detail} (mid-file damage — \
                 refusing to repair; restore the journal from backup or delete it \
                 to restart the campaign)"
            ),
            FleetError::Worker(m) => write!(f, "worker error: {m}"),
            FleetError::Verify(m) => write!(f, "verification failed: {m}"),
            FleetError::Dispatch(m) => write!(f, "dispatch error: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errors = [
            FleetError::Spec(String::new()),
            FleetError::Io(std::io::Error::other("x")),
            FleetError::Journal(String::new()),
            FleetError::Circuit(String::new()),
            FleetError::Corrupt {
                record: 0,
                detail: String::new(),
            },
            FleetError::Worker(String::new()),
            FleetError::Verify(String::new()),
            FleetError::Dispatch(String::new()),
        ];
        let mut codes: Vec<u8> = errors.iter().map(FleetError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len());
        assert!(codes.iter().all(|&c| c > 2), "0/1/2 are reserved");
    }
}
