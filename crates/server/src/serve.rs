//! The connection-serving skeleton both tiers run.
//!
//! An `exes-server` worker and the `exes-router` front differ only in what
//! their four endpoints answer; everything between the socket and those
//! answers lives here, once, so shedding, timeouts, error bytes and drain
//! behave the same at both tiers. A tier hands its endpoint bodies over as
//! an [`Endpoints`] implementation and gets back a running [`Connections`].
//!
//! Threads (plain `std::thread`: the build is offline, so there is no async
//! runtime):
//!
//! * **acceptor** — a blocking `accept` loop feeding a *bounded* queue of
//!   pending connections. Beyond `max_pending_connections` new sockets are
//!   dropped (the peer sees a closed connection and can retry) and counted
//!   in `connections_rejected`, so a connection flood cannot grow the queue
//!   or exhaust file descriptors.
//! * **workers** ([`Limits::workers`]) — pop connections and speak HTTP/1.1
//!   keep-alive: each request is routed to one endpoint and its response
//!   written back. A request that cannot be framed answers 400 (413 for an
//!   oversized body) and closes the connection.
//!
//! Shutdown is two calls, so a tier can drain its own work in between:
//! [`Connections::begin_shutdown`] sets the flag, after which every response
//! carries `Connection: close`; [`Connections::shutdown`] closes the pending
//! queue, wakes the acceptor with a connection from this process (neither
//! queued nor counted), unblocks idle keep-alive readers by shutting down the
//! read half of their sockets, and joins every thread.

use crate::http::{self, HttpError, HttpRequest};
use crate::json::{self, Json};
use crate::wire::WireError;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// An endpoint's answer: status, extra headers, JSON body.
pub type Response = (u16, Vec<(&'static str, String)>, String);

/// The four endpoints of one serving tier.
///
/// The skeleton owns the route table — query strings stripped, 404 for an
/// unknown path, 405 with `Allow` for a wrong method — so both tiers answer
/// those with the same bytes.
pub trait Endpoints: Send + Sync + 'static {
    /// `GET /healthz`.
    fn healthz(&self) -> Response;
    /// `GET /metrics`; the body renders `http` as its `"http"` group.
    fn metrics(&self, http: &HttpMetrics) -> Response;
    /// `POST /explain`. `Err` is a malformed request: answered 400 and
    /// counted in `parse_errors`.
    fn explain(&self, request: &HttpRequest) -> Result<Response, WireError>;
    /// `POST /commit`, with the same `Err` contract as
    /// [`Endpoints::explain`].
    fn commit(&self, request: &HttpRequest) -> Result<Response, WireError>;
}

/// How one tier serves its connections, copied from that tier's config.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Connection-handling worker threads (at least one runs).
    pub workers: usize,
    /// Most connections allowed to wait for a worker.
    pub max_pending_connections: usize,
    /// Largest accepted request body, in bytes (413 beyond it).
    pub max_body_bytes: usize,
    /// Socket read and write timeout: bounds an idle keep-alive connection
    /// and any single stalled read or write.
    pub read_timeout: Duration,
    /// Total time budget for receiving one request, armed at its first byte.
    pub request_budget: Duration,
}

/// Connection and request counters: the `"http"` group of `/metrics`.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// Connections queued for a worker.
    connections: AtomicU64,
    /// Connections dropped because the pending-connection queue was full.
    connections_rejected: AtomicU64,
    /// Requests framed successfully (any endpoint).
    requests: AtomicU64,
    /// Requests answered 400 or 413: malformed framing, bodies or headers.
    parse_errors: AtomicU64,
}

impl HttpMetrics {
    /// The counters as a JSON object.
    pub fn json(&self) -> String {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        format!(
            "{{\"connections\":{},\"connections_rejected\":{},\"requests\":{},\
             \"parse_errors\":{}}}",
            get(&self.connections),
            get(&self.connections_rejected),
            get(&self.requests),
            get(&self.parse_errors),
        )
    }
}

/// The UTF-8 text and parsed JSON of a request body; a body that is neither
/// is a malformed request.
pub fn json_body(request: &HttpRequest) -> Result<(&str, Json), WireError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| WireError::new("bad_request", "body is not UTF-8"))?;
    let parsed = json::parse(text).map_err(|e| WireError::new("bad_request", e.to_string()))?;
    Ok((text, parsed))
}

/// The bounded queue of accepted connections awaiting a worker.
///
/// The bound matters: admission control on *requests* only keeps memory
/// bounded if the layer in front of it — accepted sockets — is bounded too.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    arrived: Condvar,
    capacity: usize,
}

impl ConnQueue {
    /// Hands the stream back when the queue is full or closed; the caller
    /// counts the shed and drops it, closing the socket.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("conn queue poisoned");
        if state.1 || state.0.len() >= self.capacity {
            return Err(stream);
        }
        state.0.push_back(stream);
        drop(state);
        self.arrived.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("conn queue poisoned");
        loop {
            // Shutdown wins over remaining entries: connections never picked
            // up by a worker are dropped wholesale (their sockets close), so
            // no worker starts serving *after* the shutdown sequence already
            // swept the active-connection list.
            if state.1 {
                state.0.clear();
                return None;
            }
            if let Some(stream) = state.0.pop_front() {
                return Some(stream);
            }
            state = self.arrived.wait(state).expect("conn queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("conn queue poisoned").1 = true;
        self.arrived.notify_all();
    }
}

/// What the acceptor, the workers and the shutdown path share.
struct Shared {
    limits: Limits,
    conns: ConnQueue,
    http: HttpMetrics,
    shutting_down: AtomicBool,
    /// Read halves of live connections, shut down to unblock idle keep-alive
    /// readers at shutdown time.
    active: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
}

/// One tier's running acceptor and connection workers.
pub struct Connections {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts serving `listener` with `endpoints`.
pub fn start<E: Endpoints>(
    listener: TcpListener,
    endpoints: Arc<E>,
    limits: Limits,
) -> io::Result<Connections> {
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        conns: ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            arrived: Condvar::new(),
            capacity: limits.max_pending_connections.max(1),
        },
        limits,
        http: HttpMetrics::default(),
        shutting_down: AtomicBool::new(false),
        active: Mutex::new(Vec::new()),
        next_conn_id: AtomicU64::new(0),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, listener))
    };
    let workers = (0..shared.limits.workers.max(1))
        .map(|_| {
            let (shared, endpoints) = (Arc::clone(&shared), Arc::clone(&endpoints));
            std::thread::spawn(move || worker_loop(&shared, &*endpoints))
        })
        .collect();
    Ok(Connections {
        addr,
        shared,
        acceptor,
        workers,
    })
}

impl Connections {
    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets the shutdown flag: every response written from now on carries
    /// `Connection: close`, and the acceptor queues no further connection.
    pub fn begin_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Closes the pending queue (connections no worker picked up are
    /// dropped), wakes the acceptor, unblocks idle keep-alive readers and
    /// joins every thread. Sets the shutdown flag first if
    /// [`Connections::begin_shutdown`] has not.
    pub fn shutdown(self) {
        self.begin_shutdown();
        let shared = &self.shared;
        shared.conns.close();
        let wake = wake(self.addr);
        for (_, stream) in shared.active.lock().expect("active list poisoned").iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        // Should the wake-up fail (no free descriptor, say), the acceptor is
        // left to exit at its next accept rather than hang this join.
        if wake.is_ok() {
            let _ = self.acceptor.join();
        }
    }
}

/// Connects to the listener at `addr` from this process, waking an acceptor
/// parked in `accept`. A wildcard bind address is not a destination, so it
/// targets loopback instead.
fn wake(mut addr: SocketAddr) -> io::Result<TcpStream> {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, Duration::from_secs(1))
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // The shutdown wake-up, or a client racing it: dropped unqueued and
        // uncounted, and the listener closes with this thread.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => match shared.conns.push(stream) {
                Ok(()) => {
                    shared.http.connections.fetch_add(1, Ordering::Relaxed);
                }
                Err(stream) => {
                    // Shed: counted before the drop closes the socket, so a
                    // peer that sees the close also sees the count. A push
                    // refused because shutdown closed the queue is not
                    // overflow.
                    if !shared.shutting_down.load(Ordering::SeqCst) {
                        shared
                            .http
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    drop(stream);
                }
            },
            // A short back-off, so an error that repeats at once (no free
            // file descriptor) cannot spin a core.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn worker_loop<E: Endpoints>(shared: &Shared, endpoints: &E) {
    while let Some(stream) = shared.conns.pop() {
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // A connection that cannot be registered must not be served: the
        // shutdown sweep could never unblock its idle reads. try_clone only
        // fails under FD pressure, where shedding is the right call anyway.
        match stream.try_clone() {
            Ok(read_half) => shared
                .active
                .lock()
                .expect("active list poisoned")
                .push((conn_id, read_half)),
            Err(_) => continue,
        }
        // Register *before* checking the flag: either this check sees the
        // shutdown and drops the connection, or the shutdown's sweep of
        // `active` (which runs after the flag is set) sees the registration
        // and unblocks the read — no window where an idle connection can
        // stall shutdown for a full read_timeout.
        if !shared.shutting_down.load(Ordering::SeqCst) {
            let _ = serve_connection(shared, endpoints, stream);
        }
        shared
            .active
            .lock()
            .expect("active list poisoned")
            .retain(|(id, _)| *id != conn_id);
    }
}

/// Speaks HTTP/1.1 keep-alive on one connection until EOF, error, or
/// shutdown.
fn serve_connection<E: Endpoints>(
    shared: &Shared,
    endpoints: &E,
    mut stream: TcpStream,
) -> io::Result<()> {
    let limits = &shared.limits;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(limits.read_timeout)).ok();
    // The write timeout is what bounds a write-side slowloris (a client that
    // sends requests but never reads responses): each blocked write errors
    // within the timeout, freeing the worker — and bounding shutdown, since
    // Shutdown::Read cannot unblock a thread parked in send.
    stream.set_write_timeout(Some(limits.read_timeout)).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        let request = http::read_request(&mut reader, limits.max_body_bytes, limits.request_budget);
        let ((status, headers, body), close) = match request {
            Ok(request) => {
                shared.http.requests.fetch_add(1, Ordering::Relaxed);
                let response = route(endpoints, &shared.http, &request);
                // Read after routing, so a response that was computing when
                // shutdown began still closes its connection.
                let close = request.wants_close() || shared.shutting_down.load(Ordering::SeqCst);
                (response, close)
            }
            Err(HttpError::Eof | HttpError::IdleTimeout | HttpError::Io(_)) => return Ok(()),
            Err(HttpError::Malformed(message)) => {
                shared.http.parse_errors.fetch_add(1, Ordering::Relaxed);
                let error = WireError::new("bad_request", message);
                ((400, Vec::new(), error.to_json()), true)
            }
            Err(HttpError::BodyTooLarge { limit }) => {
                shared.http.parse_errors.fetch_add(1, Ordering::Relaxed);
                let message = format!("request body exceeds the {limit}-byte limit");
                let error = WireError::new("body_too_large", message);
                ((413, Vec::new(), error.to_json()), true)
            }
        };
        http::write_response(&mut stream, status, &headers, &body, close)?;
        if close {
            return Ok(());
        }
    }
}

fn route<E: Endpoints>(endpoints: &E, http: &HttpMetrics, request: &HttpRequest) -> Response {
    let or_400 = |answered: Result<Response, WireError>| {
        answered.unwrap_or_else(|error| {
            http.parse_errors.fetch_add(1, Ordering::Relaxed);
            (400, Vec::new(), error.to_json())
        })
    };
    // Route on the path alone: load balancers and probes routinely append
    // query strings (`/healthz?verbose=1`), which no endpoint here consumes.
    let path = request
        .target
        .split_once('?')
        .map_or(request.target.as_str(), |(path, _)| path);
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => endpoints.healthz(),
        ("GET", "/metrics") => endpoints.metrics(http),
        ("POST", "/explain") => or_400(endpoints.explain(request)),
        ("POST", "/commit") => or_400(endpoints.commit(request)),
        (_, "/healthz" | "/metrics") => method_not_allowed("GET"),
        (_, "/explain" | "/commit") => method_not_allowed("POST"),
        _ => (
            404,
            Vec::new(),
            WireError::new("not_found", format!("no route for {}", request.target)).to_json(),
        ),
    }
}

fn method_not_allowed(allow: &'static str) -> Response {
    (
        405,
        vec![("Allow", allow.to_string())],
        WireError::new("method_not_allowed", format!("use {allow}")).to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use std::io::Read;
    use std::sync::Barrier;
    use std::time::Instant;

    /// Endpoints with no engine behind them. With a gate, `POST /explain`
    /// meets the test at the gate twice — once on entry, once to be
    /// released — so the test can act while a request is in flight.
    struct Stub {
        gate: Option<Barrier>,
    }

    impl Endpoints for Stub {
        fn healthz(&self) -> Response {
            (200, Vec::new(), "{\"status\":\"ok\"}".to_string())
        }

        fn metrics(&self, http: &HttpMetrics) -> Response {
            (200, Vec::new(), format!("{{\"http\":{}}}", http.json()))
        }

        fn explain(&self, _request: &HttpRequest) -> Result<Response, WireError> {
            if let Some(gate) = &self.gate {
                gate.wait();
                gate.wait();
            }
            Ok((200, Vec::new(), "{}".to_string()))
        }

        fn commit(&self, request: &HttpRequest) -> Result<Response, WireError> {
            let (text, _) = json_body(request)?;
            Ok((200, Vec::new(), text.to_string()))
        }
    }

    fn limits(workers: usize, max_pending_connections: usize) -> Limits {
        Limits {
            workers,
            max_pending_connections,
            max_body_bytes: 1024,
            // Far beyond any assertion below: a shutdown that waited for an
            // idle reader to time out would fail the promptness checks.
            read_timeout: Duration::from_secs(60),
            request_budget: Duration::from_secs(60),
        }
    }

    fn serve(addr: &str, stub: Stub, limits: Limits) -> Connections {
        let listener = TcpListener::bind(addr).expect("bind");
        start(listener, Arc::new(stub), limits).expect("start")
    }

    fn counter(client: &mut HttpClient, name: &str) -> u64 {
        let metrics = client.get("/metrics").expect("metrics");
        let parsed = json::parse(&metrics.body).expect("metrics JSON");
        parsed
            .get("http")
            .and_then(|h| h.get(name))
            .and_then(Json::as_u64)
            .expect(name)
    }

    /// Shuts down, failing if that takes seconds.
    fn assert_prompt_shutdown(connections: Connections) {
        let started = Instant::now();
        connections.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    }

    #[test]
    fn routes_strip_query_strings_and_answer_404_405_and_400_with_fixed_bytes() {
        let connections = serve("127.0.0.1:0", Stub { gate: None }, limits(2, 4));
        let mut client = HttpClient::connect(connections.addr()).unwrap();
        assert_eq!(client.get("/healthz?verbose=1").unwrap().status, 200);
        let missing = client.get("/nope").unwrap();
        assert_eq!(missing.status, 404);
        assert_eq!(
            missing.body,
            "{\"error\":{\"code\":\"not_found\",\"message\":\"no route for /nope\"}}"
        );
        let wrong = client.post("/healthz", "{}").unwrap();
        assert_eq!((wrong.status, wrong.header("allow")), (405, Some("GET")));
        let wrong = client.get("/commit").unwrap();
        assert_eq!((wrong.status, wrong.header("allow")), (405, Some("POST")));
        // An endpoint's Err is a 400 the skeleton counts; so is bad framing.
        assert_eq!(client.post("/commit", "{\"ops\":").unwrap().status, 400);
        assert_eq!(client.post("/commit", "{\"ops\":[]}").unwrap().status, 200);
        let mut raw = HttpClient::connect(connections.addr()).unwrap();
        assert_eq!(raw.send_raw(b"NOT HTTP\r\n\r\n").unwrap().status, 400);
        assert_eq!(counter(&mut client, "parse_errors"), 2);
        connections.shutdown();
    }

    #[test]
    fn pending_queue_overflow_is_shed_and_counted() {
        let connections = serve("127.0.0.1:0", Stub { gate: None }, limits(1, 1));
        let addr = connections.addr();
        // The only worker serves `held`, idle between requests…
        let mut held = HttpClient::connect(addr).unwrap();
        assert_eq!(held.get("/healthz").unwrap().status, 200);
        // …so one more connection waits in the one-slot queue…
        let mut queued = HttpClient::connect(addr).unwrap();
        // …and the next ones are shed: the server closes them unread.
        for _ in 0..3 {
            let mut shed = TcpStream::connect(addr).unwrap();
            shed.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut buf = [0u8; 1];
            assert!(!matches!(shed.read(&mut buf), Ok(n) if n > 0));
        }
        drop(held);
        assert_eq!(counter(&mut queued, "connections"), 2);
        assert_eq!(counter(&mut queued, "connections_rejected"), 3);
        connections.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_with_an_idle_keep_alive_connection_open() {
        let connections = serve("127.0.0.1:0", Stub { gate: None }, limits(2, 4));
        let mut idle = HttpClient::connect(connections.addr()).unwrap();
        assert_eq!(idle.get("/healthz").unwrap().status, 200);
        assert_prompt_shutdown(connections);
    }

    #[test]
    fn shutdown_is_prompt_on_a_wildcard_listener() {
        let connections = serve("0.0.0.0:0", Stub { gate: None }, limits(2, 4));
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, connections.addr().port()));
        let mut idle = HttpClient::connect(loopback).unwrap();
        assert_eq!(idle.get("/healthz").unwrap().status, 200);
        assert_prompt_shutdown(connections);
    }

    #[test]
    fn a_response_written_after_shutdown_begins_closes_the_connection() {
        let stub = Stub {
            gate: Some(Barrier::new(2)),
        };
        let endpoints = Arc::new(stub);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let connections = start(listener, Arc::clone(&endpoints), limits(1, 4)).unwrap();
        let addr = connections.addr();
        let in_flight = std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post("/explain", "{}").unwrap()
        });
        let gate = endpoints.gate.as_ref().unwrap();
        gate.wait(); // the request is inside the endpoint
        connections.begin_shutdown();
        gate.wait(); // release it
        let response = in_flight.join().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("close"));
        assert_prompt_shutdown(connections);
    }
}
