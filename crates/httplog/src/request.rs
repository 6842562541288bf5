//! The quoted request line: method, target, protocol version.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::{HttpMethod, RequestPath};

/// The HTTP protocol version recorded in the request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum HttpVersion {
    /// `HTTP/1.0` — legacy clients and a fair amount of scripted tooling.
    Http10,
    /// `HTTP/1.1` — the overwhelming majority of 2018-era traffic.
    Http11,
    /// `HTTP/2.0` — as logged by Apache for h2 connections.
    Http2,
}

impl HttpVersion {
    /// The token as it appears in the log (`HTTP/1.1` etc.).
    pub fn as_str(self) -> &'static str {
        match self {
            HttpVersion::Http10 => "HTTP/1.0",
            HttpVersion::Http11 => "HTTP/1.1",
            HttpVersion::Http2 => "HTTP/2.0",
        }
    }
}

impl fmt::Display for HttpVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for HttpVersion {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "HTTP/1.0" => Ok(HttpVersion::Http10),
            "HTTP/1.1" => Ok(HttpVersion::Http11),
            "HTTP/2.0" | "HTTP/2" => Ok(HttpVersion::Http2),
            _ => Err(()),
        }
    }
}

/// A request line: `GET /search?q=x HTTP/1.1`.
///
/// ```
/// use divscrape_httplog::{HttpMethod, RequestLine};
///
/// let line: RequestLine = "GET /search?q=x HTTP/1.1".parse().unwrap();
/// assert_eq!(line.method(), HttpMethod::Get);
/// assert_eq!(line.path().path(), "/search");
/// assert_eq!(line.to_string(), "GET /search?q=x HTTP/1.1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestLine {
    method: HttpMethod,
    path: RequestPath,
    version: HttpVersion,
}

impl RequestLine {
    /// Creates a request line from parts.
    pub fn new(method: HttpMethod, path: RequestPath, version: HttpVersion) -> Self {
        Self {
            method,
            path,
            version,
        }
    }

    /// Overwrites every part in place, reusing the target's buffer.
    pub(crate) fn set(&mut self, method: HttpMethod, target: &str, version: HttpVersion) {
        self.method = method;
        self.path.set(target);
        self.version = version;
    }

    /// The request method.
    pub fn method(&self) -> HttpMethod {
        self.method
    }

    /// The request target.
    pub fn path(&self) -> &RequestPath {
        &self.path
    }

    /// The protocol version.
    pub fn version(&self) -> HttpVersion {
        self.version
    }
}

impl fmt::Display for RequestLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.method, self.path, self.version)
    }
}

/// Error returned when a request line is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRequestLineError {
    input: String,
}

impl fmt::Display for ParseRequestLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid request line `{}`", self.input)
    }
}

impl std::error::Error for ParseRequestLineError {}

impl FromStr for RequestLine {
    type Err = ParseRequestLineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRequestLineError {
            input: s.to_owned(),
        };
        let mut parts = s.split(' ');
        let method: HttpMethod = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let target = parts.next().ok_or_else(err)?;
        if target.is_empty() {
            return Err(err());
        }
        let version: HttpVersion = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(RequestLine::new(
            method,
            RequestPath::parse(target),
            version,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_lines() {
        let line: RequestLine = "POST /booking/checkout HTTP/1.1".parse().unwrap();
        assert_eq!(line.method(), HttpMethod::Post);
        assert_eq!(line.version(), HttpVersion::Http11);
        assert_eq!(line.path().path(), "/booking/checkout");
    }

    #[test]
    fn parses_http2_alias() {
        assert_eq!("HTTP/2".parse::<HttpVersion>().unwrap(), HttpVersion::Http2);
        assert_eq!(
            "HTTP/2.0".parse::<HttpVersion>().unwrap(),
            HttpVersion::Http2
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "GET",
            "GET /x",
            "GET  HTTP/1.1",         // empty target collapses into parts
            "get /x HTTP/1.1",       // lowercase method
            "GET /x HTTP/3.0",       // unknown version
            "GET /x HTTP/1.1 extra", // trailing junk
        ] {
            assert!(bad.parse::<RequestLine>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn display_round_trip() {
        for raw in [
            "GET / HTTP/1.1",
            "HEAD /robots.txt HTTP/1.0",
            "POST /api/v1/fares?cached=0 HTTP/2.0",
        ] {
            let line: RequestLine = raw.parse().unwrap();
            assert_eq!(line.to_string(), raw);
        }
    }
}
