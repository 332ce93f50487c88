//! Service-level errors, with a `source()` chain down to the sketch
//! layer so callers can use `?` with boxed errors.

use ams_core::SketchError;

/// Errors from the sharded ingest service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// An attribute name was not registered on this service.
    UnknownAttribute {
        /// The offending name.
        name: String,
    },
    /// An attribute name was registered twice.
    DuplicateAttribute {
        /// The duplicated name.
        name: String,
    },
    /// A configuration value was out of range.
    InvalidConfig {
        /// What was wrong.
        reason: &'static str,
    },
    /// A `Wait::Try` submission found a shard queue full. The
    /// submission was **not** enqueued (ingestion is all-or-nothing
    /// across shards); retry later or submit under `Wait::Block`.
    WouldBlock {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The service has been shut down (or is draining for shutdown);
    /// no further ingestion is accepted.
    Closed,
    /// Underlying sketch error (sizing, merge/join compatibility).
    Sketch(SketchError),
    /// The durability layer failed: the WAL could not be opened or
    /// recovered at startup, or on-disk state was written by a
    /// differently-shaped service. Carries the rendered
    /// [`DurableError`](ams_durable::DurableError) (file and offset
    /// included where the layer knows them).
    Durability {
        /// The rendered durability error.
        reason: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownAttribute { name } => write!(f, "unknown attribute: {name}"),
            ServiceError::DuplicateAttribute { name } => {
                write!(f, "attribute registered twice: {name}")
            }
            ServiceError::InvalidConfig { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
            ServiceError::WouldBlock { shard } => {
                write!(f, "shard {shard} queue is full (backpressure)")
            }
            ServiceError::Closed => write!(f, "service is shut down"),
            ServiceError::Sketch(e) => write!(f, "sketch error: {e}"),
            ServiceError::Durability { reason } => write!(f, "durability error: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for ServiceError {
    fn from(e: SketchError) -> Self {
        ServiceError::Sketch(e)
    }
}

impl From<ams_durable::DurableError> for ServiceError {
    fn from(e: ams_durable::DurableError) -> Self {
        ServiceError::Durability {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let e = ServiceError::WouldBlock { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.source().is_none());

        let inner = SketchError::Incompatible { reason: "seed" };
        let e = ServiceError::from(inner);
        assert!(e.to_string().contains("seed"));
        let source = e.source().expect("sketch errors chain");
        assert_eq!(source.to_string(), inner.to_string());
    }

    #[test]
    fn boxed_question_mark_works() {
        fn fallible() -> Result<(), Box<dyn Error>> {
            Err(ServiceError::Closed)?
        }
        assert!(fallible().is_err());
    }
}
