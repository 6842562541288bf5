//! [`AdminServer`]: a line-protocol control endpoint for a
//! [`ServicePlane`].
//!
//! One TCP connection, one command per line, one reply per command —
//! drivable with `nc`. Commands:
//!
//! | command | reply |
//! |---|---|
//! | `STATS` | one JSON object line ([`ServiceStats::to_json`]) |
//! | `TENANTS` | one JSON array of tenant names |
//! | `JOIN <name> [shards]` | `OK joined <name> shards=<n>` or `ERR …` |
//! | `LEAVE <name>` | `OK left <name> entries=<n>` or `ERR …` |
//! | `FREEZE <name>` / `THAW <name>` | `OK …` or `ERR …` |
//! | `BUDGET <n>` | `OK budget=<n> tenants=<m>` or `ERR …` |
//! | `QUIT` | `OK bye` and the connection closes |
//!
//! `STATS` and `TENANTS` read each shard's last *published* snapshot,
//! so a stalled tenant cannot wedge the admin plane.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use divscrape_detect::TenantId;
use divscrape_httplog::json::push_json_string;

use crate::plane::ServicePlane;

/// How often the accept loop and connection readers check the stop
/// flag.
const POLL: Duration = Duration::from_millis(25);

/// A line-protocol admin endpoint bound to a [`ServicePlane`] — see the
/// module docs for the command set.
///
/// The listener and every connection get their own thread; all of them
/// exit when the server is dropped.
///
/// ```
/// use divscrape_detect::{Sentinel, TenantId};
/// use divscrape_pipeline::PipelineBuilder;
/// use divscrape_service::{AdminServer, ServicePlane};
/// use std::io::{BufRead, BufReader, Write};
/// use std::net::TcpStream;
///
/// let plane = ServicePlane::builder()
///     .tenant(TenantId::new("shop"), 1, |_, _| {
///         PipelineBuilder::new().detector(Sentinel::stock())
///     })
///     .build()
///     .map_err(|e| e.to_string())?;
/// let admin = AdminServer::bind("127.0.0.1:0", plane)?;
///
/// let mut conn = TcpStream::connect(admin.local_addr())?;
/// writeln!(conn, "STATS")?;
/// let mut reply = String::new();
/// BufReader::new(conn.try_clone()?).read_line(&mut reply)?;
/// assert!(reply.contains("\"tenants\":[{\"tenant\":\"shop\""));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AdminServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds the endpoint and starts accepting connections. Bind to
    /// port 0 to let the OS pick (read it back with
    /// [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, plane: ServicePlane) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("divscrape-admin".into())
                .spawn(move || accept_loop(listener, plane, stop))?
        };
        Ok(AdminServer {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address — connect and speak the line protocol here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: TcpListener, plane: ServicePlane, stop: Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let plane = plane.clone();
                let stop = Arc::clone(&stop);
                if let Ok(handle) = thread::Builder::new()
                    .name("divscrape-admin-conn".into())
                    .spawn(move || serve_connection(stream, plane, stop))
                {
                    connections.push(handle);
                }
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

fn serve_connection(stream: TcpStream, plane: ServicePlane, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !stop.load(Ordering::Acquire) {
        match reader.read_line(&mut line) {
            Ok(0) => return, // peer closed
            Ok(_) => {
                let command = line.trim();
                let reply = if command.is_empty() {
                    line.clear();
                    continue;
                } else {
                    let (reply, quit) = dispatch(command, &plane);
                    line.clear();
                    if quit {
                        let _ = writeln!(writer, "{reply}");
                        return;
                    }
                    reply
                };
                if writeln!(writer, "{reply}")
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return;
                }
            }
            // Timeout while a line is still in flight: keep the partial
            // contents of `line` and resume appending on the next pass.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// Executes one admin command; returns `(reply, close_connection)`.
fn dispatch(command: &str, plane: &ServicePlane) -> (String, bool) {
    let mut words = command.split_whitespace();
    let verb = words.next().unwrap_or("").to_ascii_uppercase();
    match verb.as_str() {
        "STATS" => (plane.stats().to_json(), false),
        "TENANTS" => {
            let mut out = String::from("[");
            for (i, tenant) in plane.tenants().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, tenant.as_str());
            }
            out.push(']');
            (out, false)
        }
        "JOIN" => match words.next() {
            Some(name) => {
                let shards = words.next().and_then(|w| w.parse::<usize>().ok());
                match plane.join(&TenantId::new(name), shards) {
                    Ok(()) => {
                        let joined = shards.map(|s| s.max(1)).unwrap_or_else(|| {
                            plane.stats().tenants.last().map_or(1, |t| t.shards.len())
                        });
                        (format!("OK joined {name} shards={joined}"), false)
                    }
                    Err(e) => (format!("ERR {e}"), false),
                }
            }
            None => ("ERR JOIN needs a tenant name".to_owned(), false),
        },
        "LEAVE" => match words.next() {
            Some(name) => match plane.leave(&TenantId::new(name)) {
                Some(reports) => {
                    let entries: usize = reports.iter().map(|r| r.requests()).sum();
                    (format!("OK left {name} entries={entries}"), false)
                }
                None => (format!("ERR unknown tenant: {name}"), false),
            },
            None => ("ERR LEAVE needs a tenant name".to_owned(), false),
        },
        "FREEZE" | "THAW" => {
            let frozen = verb == "FREEZE";
            match words.next() {
                Some(name) => {
                    if plane.set_frozen(&TenantId::new(name), frozen) {
                        (
                            format!("OK {} {name}", if frozen { "frozen" } else { "thawed" }),
                            false,
                        )
                    } else {
                        (format!("ERR unknown tenant: {name}"), false)
                    }
                }
                None => (format!("ERR {verb} needs a tenant name"), false),
            }
        }
        "BUDGET" => match words.next().and_then(|w| w.parse::<usize>().ok()) {
            Some(budget) => match plane.set_eviction_budget(budget) {
                Ok(allotments) => (
                    format!("OK budget={budget} tenants={}", allotments.len()),
                    false,
                ),
                Err(e) => (format!("ERR {e}"), false),
            },
            None => ("ERR BUDGET needs a non-negative integer".to_owned(), false),
        },
        "QUIT" => ("OK bye".to_owned(), true),
        other => (format!("ERR unknown command: {other}"), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_detect::Sentinel;
    use divscrape_pipeline::{Adjudication, PipelineBuilder};

    fn plane() -> ServicePlane {
        ServicePlane::builder()
            .tenant(TenantId::new("shop"), 1, |_, _| {
                PipelineBuilder::new()
                    .detector(Sentinel::stock())
                    .adjudication(Adjudication::k_of_n(1))
            })
            .default_factory(|_, _| {
                PipelineBuilder::new()
                    .detector(Sentinel::stock())
                    .adjudication(Adjudication::k_of_n(1))
            })
            .build()
            .expect("plane builds")
    }

    #[test]
    fn dispatch_covers_the_command_table() {
        let plane = plane();
        let (stats, _) = dispatch("STATS", &plane);
        assert!(stats.starts_with('{'));
        let (tenants, _) = dispatch("tenants", &plane);
        assert_eq!(tenants, "[\"shop\"]");
        let (join, _) = dispatch("JOIN late 2", &plane);
        assert_eq!(join, "OK joined late shards=2");
        let (dup, _) = dispatch("JOIN late", &plane);
        assert!(dup.starts_with("ERR"));
        let (freeze, _) = dispatch("FREEZE late", &plane);
        assert_eq!(freeze, "OK frozen late");
        let (thaw, _) = dispatch("THAW late", &plane);
        assert_eq!(thaw, "OK thawed late");
        let (budget, _) = dispatch("BUDGET 500", &plane);
        assert_eq!(budget, "OK budget=500 tenants=2");
        let (leave, _) = dispatch("LEAVE late", &plane);
        assert_eq!(leave, "OK left late entries=0");
        let (gone, _) = dispatch("LEAVE late", &plane);
        assert!(gone.starts_with("ERR unknown tenant"));
        let (bad, _) = dispatch("NONSENSE", &plane);
        assert!(bad.starts_with("ERR unknown command"));
        let (bye, quit) = dispatch("QUIT", &plane);
        assert_eq!(bye, "OK bye");
        assert!(quit);
    }
}
