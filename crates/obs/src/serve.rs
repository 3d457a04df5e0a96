//! A minimal metrics endpoint on `std::net::TcpListener`.
//!
//! One background thread accepts connections and answers GET routes. The
//! classic [`serve`] entry point wires the two metrics sinks (`/metrics`
//! Prometheus text, `/stats.json` JSON); [`serve_routes`] additionally
//! lets the caller answer arbitrary paths — health probes (`/healthz`,
//! `/readyz`), the log journal (`/debug/journal`), per-session flight
//! recorder dumps (`/debug/trace/<session>`) — with full control over the
//! status code. Callbacks run per request, so the server always serves
//! fresh values and the caller can refresh derived gauges first.
//!
//! The accept side is [`AcceptLoop`], the one listener primitive every TCP
//! server in the workspace shares: a thread blocked in `accept`, woken for
//! shutdown by a connection to itself, so it neither polls nor sleeps.
//!
//! Security note: there is no TLS and no authentication — bind to
//! loopback (`127.0.0.1:0`) or a firewalled interface only, exactly like a
//! bare Prometheus client endpoint (see DESIGN.md §Observability).

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which sink a request resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFormat {
    /// `/metrics`: Prometheus text exposition.
    Prometheus,
    /// `/stats.json`: JSON snapshot.
    Json,
}

/// Renders a sink on demand; runs on the server thread per request.
pub type RenderFn = Arc<dyn Fn(SinkFormat) -> String + Send + Sync>;

/// One HTTP response a route callback produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResponse {
    /// Status code (200, 404, 503, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl RouteResponse {
    /// A `200 OK` plain-text response.
    pub fn ok_text(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain",
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn ok_json(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A `503 Service Unavailable` plain-text response (failed probes).
    pub fn unavailable(body: impl Into<String>) -> Self {
        Self {
            status: 503,
            content_type: "text/plain",
            body: body.into(),
        }
    }

    /// A `404 Not Found` plain-text response.
    pub fn not_found(body: impl Into<String>) -> Self {
        Self {
            status: 404,
            content_type: "text/plain",
            body: body.into(),
        }
    }
}

/// Answers a GET for `path` (query string already stripped), or `None` to
/// fall through to the built-in 404. Runs on the server thread.
pub type RouteFn = Arc<dyn Fn(&str) -> Option<RouteResponse> + Send + Sync>;

/// A thread blocked in `accept` on a TCP listener, handing each accepted
/// connection to a callback. [`AcceptLoop::stop`] (or drop) raises a flag,
/// wakes the blocked `accept` with a connection to the listener itself,
/// and joins the thread: connections are taken the moment they arrive and
/// shutdown needs no poll interval.
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AcceptLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceptLoop")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Pause after a failed `accept` (say, out of file descriptors) so a
/// persistent error does not spin the thread. Not a poll: a healthy
/// listener never sleeps.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

impl AcceptLoop {
    /// Starts a thread named `name` that accepts on `listener` (switched
    /// to blocking mode) and calls `on_conn` with every connection, on the
    /// accept thread.
    ///
    /// # Errors
    ///
    /// The listener's mode or address cannot be read or set, or the thread
    /// cannot be spawned.
    pub fn spawn<F>(listener: TcpListener, name: &str, mut on_conn: F) -> std::io::Result<Self>
    where
        F: FnMut(TcpStream, SocketAddr) + Send + 'static,
    {
        listener.set_nonblocking(false)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                let accepted = listener.accept();
                if stopping.load(Ordering::SeqCst) {
                    return; // the wake-up connection, or one racing it
                }
                match accepted {
                    Ok((stream, peer)) => on_conn(stream, peer),
                    Err(e) => {
                        crate::warn!("accept error: {e}"; addr = addr);
                        std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the thread; a no-op once stopped. If the
    /// wake-up connection cannot be made, the thread is left to exit at
    /// its next `accept` rather than joined.
    pub fn stop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let wake = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, self.addr.port()).into(),
            IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, self.addr.port()).into(),
            _ => self.addr,
        };
        match TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            Ok(_) => {
                if handle.join().is_err() {
                    crate::warn!("accept loop thread panicked"; addr = self.addr);
                }
            }
            Err(e) => crate::warn!("accept loop not woken: {e}"; addr = self.addr),
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Handle to a running metrics endpoint; shuts the thread down on drop.
pub struct MetricsServer {
    accept: AcceptLoop,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.accept.addr())
            .finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }
}

/// Starts a metrics endpoint on `addr` (e.g. `"127.0.0.1:0"`) serving
/// only the two metrics sinks.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(addr: &str, render: RenderFn) -> std::io::Result<MetricsServer> {
    serve_routes(addr, render, Arc::new(|_path| None))
}

/// Starts a metrics endpoint on `addr` serving `/metrics`, `/stats.json`,
/// and whatever extra GET paths `routes` answers (health probes, debug
/// dumps). `routes` wins on path collisions with the built-in sinks.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_routes(
    addr: &str,
    render: RenderFn,
    routes: RouteFn,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let accept = AcceptLoop::spawn(listener, "obs-metrics", move |stream, _peer| {
        if let Err(e) = handle_request(stream, &render, &routes) {
            crate::debug!("metrics request failed: {e}");
        }
    })?;
    crate::info!("metrics endpoint listening"; addr = accept.addr());
    Ok(MetricsServer { accept })
}

fn status_line(status: u16) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Status",
    };
    format!("{status} {reason}")
}

fn handle_request(
    mut stream: TcpStream,
    render: &RenderFn,
    routes: &RouteFn,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 2048];
    let mut read = 0usize;
    // Read until the end of the request head (or the buffer fills — any
    // legitimate GET fits easily).
    while read < buf.len() {
        match stream.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => {
                read += n;
                if buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..read]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let raw_path = parts.next().unwrap_or("");
    let path = raw_path.split('?').next().unwrap_or("");
    let reply = if method != "GET" {
        RouteResponse {
            status: 405,
            content_type: "text/plain",
            body: "GET only\n".to_string(),
        }
    } else if let Some(reply) = routes(path) {
        reply
    } else if path == "/metrics" {
        RouteResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: render(SinkFormat::Prometheus),
        }
    } else if path == "/stats.json" || path == "/json" {
        RouteResponse::ok_json(render(SinkFormat::Json))
    } else {
        RouteResponse::not_found("routes: /metrics /stats.json\n")
    };
    let response = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        status_line(reply.status),
        reply.content_type,
        reply.body.len(),
        reply.body
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn accept_loop_hands_over_connections_and_stops_without_polling() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = TcpListener::bind(bind).expect("bind");
            let (tx, rx) = std::sync::mpsc::channel();
            let mut accept = AcceptLoop::spawn(listener, "obs-test-accept", move |stream, _| {
                tx.send(stream).expect("test alive");
            })
            .expect("spawn");
            let port = accept.addr().port();
            let _client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
            rx.recv_timeout(Duration::from_secs(5))
                .expect("connection handed over");
            let t0 = std::time::Instant::now();
            accept.stop();
            assert!(t0.elapsed() < Duration::from_secs(1), "{bind}: slow stop");
            // The thread exited and dropped the listener.
            assert!(TcpStream::connect(("127.0.0.1", port)).is_err(), "{bind}");
            accept.stop(); // idempotent
        }
    }

    #[test]
    fn serves_both_sinks_and_404s() {
        let render: RenderFn = Arc::new(|format| match format {
            SinkFormat::Prometheus => "demo_total 1\n".to_string(),
            SinkFormat::Json => "{\"demo_total\":1}".to_string(),
        });
        let server = serve("127.0.0.1:0", render).expect("bind loopback");
        let addr = server.addr();

        let text = get(addr, "/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("demo_total 1"));
        assert!(text.contains("Content-Type: text/plain"));

        let json = get(addr, "/stats.json");
        assert!(json.contains("{\"demo_total\":1}"));
        assert!(json.contains("application/json"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        drop(server); // joins the thread; a second bind of the port works
    }

    #[test]
    fn caller_routes_control_paths_and_status() {
        let render: RenderFn = Arc::new(|_| "x 1\n".to_string());
        let routes: RouteFn = Arc::new(|path| match path {
            "/healthz" => Some(RouteResponse::ok_text("ok\n")),
            "/readyz" => Some(RouteResponse::unavailable("draining\n")),
            p => p
                .strip_prefix("/debug/trace/")
                .map(|session| RouteResponse::ok_json(format!("{{\"session\":\"{session}\"}}"))),
        });
        let server = serve_routes("127.0.0.1:0", render, routes).expect("bind loopback");
        let addr = server.addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"));

        let ready = get(addr, "/readyz?verbose");
        assert!(
            ready.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{ready}"
        );

        let dump = get(addr, "/debug/trace/kiosk-1");
        assert!(dump.contains("application/json"));
        assert!(dump.ends_with("{\"session\":\"kiosk-1\"}"));

        // Built-in sinks still answer when the route fn passes.
        let text = get(addr, "/metrics");
        assert!(text.contains("x 1"));
        let missing = get(addr, "/debug/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
    }
}
