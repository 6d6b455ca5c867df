//! A blocking HTTP/1.1 client.

use std::io::BufReader;
use std::time::Duration;

use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::transport::{connect_with, Stream};

/// A blocking HTTP client.
///
/// URLs use the transport address syntax (`tcp://host:port/path`,
/// `mem://name/path`, or `http://host:port/path`). Each call of
/// [`HttpClient::get`]/[`HttpClient::post`] opens a fresh connection; use
/// [`HttpClient::connect`] for keep-alive request sequences (the RTT
/// benchmark uses this, mirroring the persistent connections of the
/// paper's Axis client).
#[derive(Debug, Clone)]
pub struct HttpClient {
    read_timeout: Option<Duration>,
}

impl HttpClient {
    /// Creates a client with no read timeout.
    pub fn new() -> HttpClient {
        HttpClient { read_timeout: None }
    }

    /// Sets a read timeout applied to response reads.
    pub fn with_read_timeout(mut self, timeout: Duration) -> HttpClient {
        self.read_timeout = Some(timeout);
        self
    }

    /// Performs a `GET` on `url`.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or malformed responses. Non-2xx statuses
    /// are returned as successful [`Response`]s — SOAP faults ride on 500.
    pub fn get(&self, url: &str) -> Result<Response, HttpError> {
        let (addr, path) = split_url(url)?;
        let mut conn = self.open(&addr)?;
        conn.send(&Request::get(path))
    }

    /// Performs a `HEAD` on `url` (headers only; the body is never read
    /// even when `Content-Length` is advertised).
    ///
    /// # Errors
    ///
    /// Same as [`HttpClient::get`].
    pub fn head(&self, url: &str) -> Result<Response, HttpError> {
        let (addr, path) = split_url(url)?;
        let mut conn = self.open(&addr)?;
        conn.send(&Request::head(path))
    }

    /// Performs a `POST` of `body` on `url`.
    ///
    /// # Errors
    ///
    /// Same as [`HttpClient::get`].
    pub fn post(
        &self,
        url: &str,
        body: Vec<u8>,
        content_type: &str,
    ) -> Result<Response, HttpError> {
        let (addr, path) = split_url(url)?;
        let mut conn = self.open(&addr)?;
        conn.send(&Request::post(path, body, content_type))
    }

    /// Opens a keep-alive connection to the authority part of `url`
    /// (any path component is ignored).
    ///
    /// # Errors
    ///
    /// Fails if the connection cannot be established.
    pub fn connect(&self, url: &str) -> Result<Connection, HttpError> {
        let (addr, _) = split_url(url)?;
        self.open(&addr)
    }

    fn open(&self, addr: &str) -> Result<Connection, HttpError> {
        // The timeout rides through the transport layer so every stream
        // flavour (TCP, mem, chaos-wrapped) honors it; a server that
        // accepts and never responds surfaces as `HttpError::Timeout`.
        let stream = connect_with(addr, self.read_timeout)?;
        let write_half = stream.try_clone().map_err(HttpError::Io)?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer: write_half,
        })
    }
}

impl Default for HttpClient {
    fn default() -> Self {
        Self::new()
    }
}

/// A keep-alive HTTP connection created by [`HttpClient::connect`].
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Connection {
    /// Sends `req` and reads the response.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed response; the connection should
    /// be dropped afterwards.
    pub fn send(&mut self, req: &Request) -> Result<Response, HttpError> {
        if let Err(e) = req.write_to(&mut self.writer) {
            // The server may have answered and closed before consuming
            // the request (e.g. 503 load shedding); prefer its response
            // over the broken-pipe write error.
            return self.read_response(req).map_err(|_| e);
        }
        self.read_response(req)
    }

    fn read_response(&mut self, req: &Request) -> Result<Response, HttpError> {
        if req.method() == crate::Method::Head {
            Response::read_head_from(&mut self.reader)
        } else {
            Response::read_from(&mut self.reader)
        }
    }

    /// Closes the connection (dropping it has the same effect).
    pub fn close(self) {}
}

/// Splits `scheme://authority/path` into (`scheme://authority`, `/path`).
fn split_url(url: &str) -> Result<(String, String), HttpError> {
    let scheme_end = url
        .find("://")
        .ok_or_else(|| HttpError::BadAddress(url.to_string()))?;
    let rest = &url[scheme_end + 3..];
    match rest.find('/') {
        Some(slash) => Ok((
            url[..scheme_end + 3 + slash].to_string(),
            rest[slash..].to_string(),
        )),
        None => Ok((url.to_string(), "/".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_url_variants() {
        assert_eq!(
            split_url("tcp://h:1/a/b").unwrap(),
            ("tcp://h:1".into(), "/a/b".into())
        );
        assert_eq!(
            split_url("mem://name").unwrap(),
            ("mem://name".into(), "/".into())
        );
        assert_eq!(
            split_url("http://h:1/").unwrap(),
            ("http://h:1".into(), "/".into())
        );
        assert!(split_url("no-scheme").is_err());
    }

    #[test]
    fn get_against_missing_endpoint_fails() {
        let err = HttpClient::new().get("mem://definitely-missing/x");
        assert!(err.is_err());
    }
}
