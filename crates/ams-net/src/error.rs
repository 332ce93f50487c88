//! Client- and server-facing errors of the network layer.

use crate::codec::{ErrorCode, FrameError};

/// Errors surfaced by the client library (and by server setup).
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed (includes the peer hanging up:
    /// `UnexpectedEof`).
    Io(std::io::Error),
    /// The byte stream violated the framing protocol; the connection
    /// is no longer usable.
    Frame(FrameError),
    /// A request could not be encoded (a field over the frame's
    /// limits, an empty scrape section set). It is the caller's error,
    /// not the transport's: it never triggers a reconnect.
    Encode(FrameError),
    /// The server answered with a protocol-level error response.
    Remote {
        /// The failure class.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a response kind the call did not
    /// expect — a client/server logic mismatch.
    UnexpectedResponse {
        /// What the call was waiting for.
        expected: &'static str,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame(e) => write!(f, "framing error: {e}"),
            NetError::Encode(e) => write!(f, "request not encodable: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            NetError::UnexpectedResponse { expected } => {
                write!(f, "unexpected response kind (wanted {expected})")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) | NetError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let e = NetError::from(FrameError::BadMagic);
        assert!(e.to_string().contains("framing"));
        assert!(e.source().is_some());
        let e = NetError::Remote {
            code: ErrorCode::UnknownAttribute,
            message: "no such attribute".into(),
        };
        assert!(e.to_string().contains("unknown-attribute"));
        assert!(e.source().is_none());
    }
}
