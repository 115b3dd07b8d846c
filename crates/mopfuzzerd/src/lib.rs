//! `mopfuzzerd` — the MopFuzzer fleet daemon.
//!
//! One process runs many campaigns for many tenants and exposes a small
//! dependency-free HTTP/1.1 control and metrics API:
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /campaigns` | submit a campaign (JSON spec; see [`CampaignSpec`]) |
//! | `GET /campaigns` | every campaign's status, id-ordered |
//! | `GET /campaigns/{id}` | one campaign's status |
//! | `POST /campaigns/{id}/cancel` | stop one campaign at its next round boundary |
//! | `GET /metrics` | live Prometheus page aggregated across tenants, plus per-tenant `{campaign="id"}` samples |
//! | `GET /healthz` | liveness probe (`ok`) |
//!
//! Campaigns run on per-tenant driver threads, gated by a FIFO admission
//! semaphore of `max_active` slots. Plain tenants multiplex onto the one
//! process-wide work pool (capacity = the max of the plain tenants'
//! `jobs`, never the sum); corpus tenants run serially and add no pool
//! capacity. Each campaign journals under its own tenant directory using
//! the same library calls and defaults as the CLI, so its journal is
//! byte-identical to a standalone `mopfuzzer` run at the same seed and
//! worker counts. A drain (SIGTERM, or [`Server::drain`]) stops every
//! running campaign at its next round boundary with journals flushed;
//! `mopfuzzer serve --resume` re-adopts and finishes them
//! bit-identically. See `DESIGN.md` ("Fleet service") for the full
//! lifecycle.

mod http;
mod registry;

pub use http::{read_request, respond, Request};
pub use registry::{
    CampaignSpec, CampaignStatus, Registry, State, CAMPAIGNS_DIR, JOURNAL_FILE, SPEC_FILE,
    STATUS_FILE,
};

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection threads one daemon serves at once. Past the cap the accept
/// thread answers `503` itself and closes the connection, so a flood of
/// idle clients costs no more than this many threads.
pub const MAX_CONNECTIONS: usize = 64;

/// Daemon configuration (the parsed form of `mopfuzzerd --listen ..
/// --data-dir .. [--max-active N] [--resume]`).
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address, e.g. `127.0.0.1:7077` (port 0 picks a free port).
    pub listen: String,
    /// Root of all campaign state (`<data-dir>/campaigns/<id>/..`).
    pub data_dir: PathBuf,
    /// Campaigns allowed to run concurrently; others queue FIFO.
    pub max_active: usize,
    /// Re-adopt incomplete campaigns left by a previous daemon: resume
    /// their journals, start the still-queued ones.
    pub resume: bool,
}

impl Config {
    pub fn new(listen: impl Into<String>, data_dir: impl Into<PathBuf>) -> Config {
        Config {
            listen: listen.into(),
            data_dir: data_dir.into(),
            max_active: 4,
            resume: false,
        }
    }
}

/// A running daemon: the bound listener, its accept thread, and the
/// campaign registry. Also usable in-process (tests bind port 0).
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop_accept: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, adopts existing campaign state, and starts serving.
    pub fn start(config: Config) -> Result<Server, String> {
        let registry = Registry::open(&config.data_dir, config.max_active, config.resume)?;
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("cannot bind {}: {e}", config.listen))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let registry = registry.clone();
            let stop = stop_accept.clone();
            std::thread::Builder::new()
                .name("mopfuzzerd-accept".to_string())
                .spawn(move || accept_loop(listener, registry, stop))
                .map_err(|e| format!("cannot spawn accept thread: {e}"))?
        };
        Ok(Server {
            addr,
            registry,
            stop_accept,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct registry access for in-process callers (tests, the CLI).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting and waits for every campaign to end *naturally* —
    /// running and queued tenants all run to completion.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.registry.join();
    }

    /// Graceful drain: stops accepting, stops every running campaign at
    /// its next round boundary (journals flushed, state `interrupted`),
    /// leaves queued tenants queued, and waits for the driver threads.
    /// A later `--resume` daemon picks all of them back up.
    pub fn drain(mut self) {
        self.stop_accepting();
        self.registry.drain();
        self.registry.join();
    }

    fn stop_accepting(&mut self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// One live connection thread; dropping it frees the slot.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<Registry>, stop: Arc<AtomicBool>) {
    let live = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Only this thread takes slots, so the check cannot race.
                if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    respond(
                        &mut stream,
                        503,
                        "application/json",
                        "{\"error\":\"too many connections\"}\n",
                    );
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let slot = ConnectionSlot(live.clone());
                let registry = registry.clone();
                // One short-lived thread per request: the control plane
                // sees a handful of requests per campaign, not traffic.
                let _ = std::thread::Builder::new()
                    .name("mopfuzzerd-conn".to_string())
                    .spawn(move || {
                        let _slot = slot;
                        handle_connection(stream, &registry)
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, registry: &Arc<Registry>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    match read_request(&mut stream) {
        Ok(request) => {
            let (status, content_type, body) = route(registry, &request);
            respond(&mut stream, status, content_type, &body);
        }
        Err(e) => respond(&mut stream, 400, "application/json", &error_body(&e)),
    }
}

/// Maps one request to a response. Pure with respect to the connection,
/// so unit tests can exercise the whole API without sockets.
pub fn route(registry: &Arc<Registry>, request: &Request) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain; charset=utf-8";
    let method = request.method.as_str();
    match (method, request.path.as_str()) {
        ("GET", "/healthz") => (200, TEXT, "ok\n".to_string()),
        ("GET", "/metrics") => {
            let page = jtelemetry::export::prometheus_fleet(&registry.metrics());
            (200, TEXT, page)
        }
        ("GET", "/campaigns") => {
            let statuses: Vec<String> = registry
                .statuses()
                .iter()
                .map(CampaignStatus::to_json)
                .collect();
            (200, JSON, format!("[{}]\n", statuses.join(",")))
        }
        ("POST", "/campaigns") => {
            match CampaignSpec::from_json(&request.body).and_then(|spec| registry.submit(spec)) {
                Ok(status) => (201, JSON, status.to_json() + "\n"),
                Err(e) => (400, JSON, error_body(&e)),
            }
        }
        (_, path) => {
            let Some(rest) = path.strip_prefix("/campaigns/") else {
                return (404, JSON, error_body("no such route"));
            };
            match (method, rest.strip_suffix("/cancel")) {
                ("POST", Some(id)) => match registry.cancel(id) {
                    Some(status) => (200, JSON, status.to_json() + "\n"),
                    None => (404, JSON, error_body(&format!("no campaign {id}"))),
                },
                ("GET", None) => match registry.status(rest) {
                    Some(status) => (200, JSON, status.to_json() + "\n"),
                    None => (404, JSON, error_body(&format!("no campaign {rest}"))),
                },
                _ => (405, JSON, error_body("method not allowed")),
            }
        }
    }
}

/// The JSON body of every error response.
fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}\n", jtelemetry::json::quote(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mopfuzzerd-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn get(registry: &Arc<Registry>, path: &str) -> (u16, String) {
        let (status, _, body) = route(
            registry,
            &Request {
                method: "GET".to_string(),
                path: path.to_string(),
                body: String::new(),
            },
        );
        (status, body)
    }

    fn post(registry: &Arc<Registry>, path: &str, body: &str) -> (u16, String) {
        let (status, _, body) = route(
            registry,
            &Request {
                method: "POST".to_string(),
                path: path.to_string(),
                body: body.to_string(),
            },
        );
        (status, body)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let dir = temp_dir("routes");
        let registry = Registry::open(&dir, 1, false).unwrap();
        assert_eq!(get(&registry, "/healthz"), (200, "ok\n".to_string()));
        assert_eq!(get(&registry, "/nope").0, 404);
        assert_eq!(get(&registry, "/campaigns/c9999").0, 404);
        assert_eq!(post(&registry, "/campaigns/c9999/cancel", "").0, 404);
        registry.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_fleet_metrics_page_validates() {
        let dir = temp_dir("metrics");
        let registry = Registry::open(&dir, 1, false).unwrap();
        let (status, page) = get(&registry, "/metrics");
        assert_eq!(status, 200);
        jtelemetry::schema::validate_prometheus(&page).unwrap();
        registry.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_runs_to_done_and_rejects_bad_specs() {
        let dir = temp_dir("submit");
        let registry = Registry::open(&dir, 2, false).unwrap();
        let (status, body) = post(
            &registry,
            "/campaigns",
            "{\"rounds\": 2, \"iterations\": 4, \"jobs\": 1}",
        );
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"id\":\"c0001\""), "{body}");
        assert_eq!(post(&registry, "/campaigns", "{\"iterations\":1}").0, 400);
        registry.join();
        let (_, body) = get(&registry, "/campaigns/c0001");
        assert!(body.contains("\"state\":\"done\""), "{body}");
        assert!(body.contains("\"completed_rounds\":2"), "{body}");
        // The journal landed in the tenant directory and parses.
        let journal = dir.join(CAMPAIGNS_DIR).join("c0001").join(JOURNAL_FILE);
        let contents = mopfuzzer::read_journal(&journal).unwrap();
        assert_eq!(contents.records.len(), 2);
        // /metrics now carries the tenant label and still validates.
        let (_, page) = get(&registry, "/metrics");
        jtelemetry::schema::validate_prometheus(&page).unwrap();
        assert!(page.contains("{campaign=\"c0001\"}"), "{page}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_stops_a_queued_campaign() {
        let dir = temp_dir("cancel");
        let registry = Registry::open(&dir, 1, false).unwrap();
        // Slot 1 is taken by a short campaign; the second queues.
        post(
            &registry,
            "/campaigns",
            "{\"rounds\": 1, \"iterations\": 2, \"jobs\": 1}",
        );
        let (status, body) = post(
            &registry,
            "/campaigns",
            "{\"rounds\": 30, \"iterations\": 2, \"jobs\": 1}",
        );
        assert_eq!(status, 201, "{body}");
        let (status, body) = post(&registry, "/campaigns/c0002/cancel", "");
        assert_eq!(status, 200, "{body}");
        registry.join();
        let (_, body) = get(&registry, "/campaigns/c0002");
        assert!(body.contains("\"state\":\"cancelled\""), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_binds_and_answers_over_tcp() {
        use std::io::{Read, Write};
        let dir = temp_dir("tcp");
        let server = Server::start(Config::new("127.0.0.1:0", &dir)).unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: d\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("ok\n"), "{response}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
