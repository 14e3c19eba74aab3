//! The typed error surface of the server.
//!
//! Everything that can go wrong — transport faults, protocol violations,
//! admission rejections, bad request payloads — is a [`ServerError`]
//! variant. The crate's clippy attribute (`clippy::unwrap_used`,
//! `expect_used`, `panic`, … outside tests) holds it to the same invariant
//! as the model crates: a malformed request or a broken socket must never
//! abort the process. [`ServerError::status`] maps each
//! variant to the HTTP status it is answered with; transport-level faults
//! map to `None` because no response can reach the peer anymore.

use std::fmt;

/// Any failure in the serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The listener could not be bound.
    Bind {
        /// Address that was requested.
        addr: String,
        /// OS-level detail.
        detail: String,
    },
    /// A socket operation failed mid-connection.
    Io {
        /// What the server was doing.
        context: &'static str,
        /// OS-level detail.
        detail: String,
    },
    /// The peer closed the connection (or aborted mid-request).
    ConnectionClosed,
    /// The per-request deadline expired before a response was produced.
    Timeout,
    /// The request violates HTTP/1.1 framing or carries an invalid payload.
    BadRequest(String),
    /// The request line exceeded the configured limit.
    UriTooLong(usize),
    /// The header block exceeded the configured limit.
    HeadersTooLarge(usize),
    /// The declared body length exceeded the configured limit.
    BodyTooLarge(usize),
    /// The admission queue was full; the connection was turned away.
    QueueFull,
    /// No route matches the request path.
    NotFound(String),
    /// The route exists but not for this method.
    MethodNotAllowed {
        /// Request path.
        path: String,
        /// Methods the route accepts.
        allowed: &'static str,
    },
    /// An append body staged more implementations than the server admits
    /// in one request.
    AppendTooLarge {
        /// Implementations in the rejected body.
        entries: usize,
        /// The configured per-request cap.
        max: usize,
    },
    /// The request named a strategy the server does not serve.
    UnknownStrategy(String),
    /// The recommendation core rejected the request (unknown ids, …).
    Recommend(goalrec_core::Error),
    /// A hot reload attempt failed; the previous model keeps serving.
    ReloadFailed(String),
    /// A bug on the server side.
    Internal(String),
}

impl ServerError {
    /// The HTTP status this error is answered with, or `None` when the
    /// transport is gone and no answer can be written.
    pub(crate) fn status(&self) -> Option<u16> {
        match self {
            ServerError::Bind { .. } | ServerError::Io { .. } | ServerError::ConnectionClosed => {
                None
            }
            ServerError::Timeout => Some(408),
            ServerError::BadRequest(_)
            | ServerError::UnknownStrategy(_)
            | ServerError::Recommend(_) => Some(400),
            ServerError::UriTooLong(_) => Some(414),
            ServerError::HeadersTooLarge(_) => Some(431),
            ServerError::BodyTooLarge(_) | ServerError::AppendTooLarge { .. } => Some(413),
            ServerError::QueueFull => Some(503),
            ServerError::NotFound(_) => Some(404),
            ServerError::MethodNotAllowed { .. } => Some(405),
            ServerError::ReloadFailed(_) => Some(500),
            ServerError::Internal(_) => Some(500),
        }
    }

    /// Maps an I/O error raised while touching a connection.
    pub(crate) fn from_io(context: &'static str, e: &std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        match e.kind() {
            TimedOut | WouldBlock => ServerError::Timeout,
            UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => {
                ServerError::ConnectionClosed
            }
            _ => ServerError::Io {
                context,
                detail: e.to_string(),
            },
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Bind { addr, detail } => write!(f, "cannot bind {addr}: {detail}"),
            ServerError::Io { context, detail } => write!(f, "i/o error while {context}: {detail}"),
            ServerError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServerError::Timeout => write!(f, "request deadline expired"),
            ServerError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServerError::UriTooLong(max) => {
                write!(f, "request line exceeds the {max}-byte limit")
            }
            ServerError::HeadersTooLarge(max) => {
                write!(f, "header block exceeds the {max}-byte limit")
            }
            ServerError::BodyTooLarge(max) => write!(f, "body exceeds the {max}-byte limit"),
            ServerError::AppendTooLarge { entries, max } => write!(
                f,
                "append stages {entries} implementations, above the {max}-per-request cap; \
                 split the batch"
            ),
            ServerError::QueueFull => write!(f, "admission queue full, try again later"),
            ServerError::NotFound(path) => write!(f, "no route for {path}"),
            ServerError::MethodNotAllowed { path, allowed } => {
                write!(f, "{path} only accepts {allowed}")
            }
            ServerError::UnknownStrategy(name) => write!(
                f,
                "unknown strategy '{name}' (expected breadth | best-match | focus-cmp | focus-cl)"
            ),
            ServerError::Recommend(e) => write!(f, "recommendation rejected: {e}"),
            ServerError::ReloadFailed(msg) => {
                write!(f, "reload failed (previous model keeps serving): {msg}")
            }
            ServerError::Internal(msg) => write!(f, "internal server error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<goalrec_core::Error> for ServerError {
    fn from(e: goalrec_core::Error) -> Self {
        ServerError::Recommend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_covers_the_protocol_errors() {
        assert_eq!(ServerError::Timeout.status(), Some(408));
        assert_eq!(ServerError::QueueFull.status(), Some(503));
        assert_eq!(ServerError::BadRequest("x".into()).status(), Some(400));
        assert_eq!(ServerError::BodyTooLarge(1).status(), Some(413));
        assert_eq!(
            ServerError::AppendTooLarge { entries: 9, max: 4 }.status(),
            Some(413)
        );
        assert_eq!(ServerError::UriTooLong(1).status(), Some(414));
        assert_eq!(ServerError::HeadersTooLarge(1).status(), Some(431));
        assert_eq!(ServerError::NotFound("/x".into()).status(), Some(404));
        assert_eq!(
            ServerError::MethodNotAllowed {
                path: "/x".into(),
                allowed: "GET"
            }
            .status(),
            Some(405)
        );
        assert_eq!(ServerError::Internal("bug".into()).status(), Some(500));
        assert_eq!(ServerError::ReloadFailed("torn".into()).status(), Some(500));
        assert_eq!(ServerError::ConnectionClosed.status(), None);
    }

    #[test]
    fn io_errors_classify_by_kind() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            ServerError::from_io("reading", &Error::from(ErrorKind::TimedOut)),
            ServerError::Timeout
        );
        assert_eq!(
            ServerError::from_io("reading", &Error::from(ErrorKind::BrokenPipe)),
            ServerError::ConnectionClosed
        );
        assert!(matches!(
            ServerError::from_io("reading", &Error::from(ErrorKind::PermissionDenied)),
            ServerError::Io { .. }
        ));
    }
}
