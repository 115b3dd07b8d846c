//! Fleet-service equivalence, end to end.
//!
//! The daemon's whole promise is that multi-tenancy is *invisible* in
//! the artifacts: a campaign submitted over HTTP and run concurrently
//! with other tenants journals byte-for-byte what a standalone CLI run
//! with the same seed and worker counts journals — including across a
//! SIGTERM-style drain plus `serve --resume`. These tests pin that
//! promise with real sockets against an in-process [`mopfuzzerd::Server`].

use mopfuzzerd::{Config, Server, CAMPAIGNS_DIR, JOURNAL_FILE, MAX_CONNECTIONS, SPEC_FILE};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mop_service_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One HTTP/1.1 request over a real socket; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: d\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `GET /campaigns/{id}` until `pred` holds on the body.
fn poll_campaign(addr: SocketAddr, id: &str, pred: impl Fn(&str) -> bool, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), "");
        assert_eq!(status, 200, "{body}");
        if pred(&body) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} on {id}; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The reference journal: the same library call, config, and defaults
/// the CLI's `--rounds .. --journal ..` path uses (`run_serve` is a thin
/// exec shim, and the CLI's own tests pin the binary to this call).
fn reference_journal(path: &Path, rounds: usize, rng_seed: u64, iterations: usize, jobs: usize) {
    let config = mopfuzzer::CampaignConfig {
        iterations_per_seed: iterations,
        variant: mopfuzzer::Variant::Full,
        rounds,
        pool: jvmsim::JvmSpec::differential_pool(),
        rng_seed,
        supervisor: mopfuzzer::SupervisorConfig::default(),
        fault: None,
        jobs,
    };
    let seeds = mopfuzzer::corpus::builtin();
    mopfuzzer::run_campaign_with_journal(&seeds, &config, path).unwrap();
}

fn daemon_journal(data_dir: &Path, id: &str) -> PathBuf {
    data_dir.join(CAMPAIGNS_DIR).join(id).join(JOURNAL_FILE)
}

/// Two tenants through one daemon over HTTP, concurrently, must journal
/// byte-identically to the same two campaigns run serially via the CLI
/// entry points — and /metrics must stay a valid Prometheus page with a
/// per-campaign label for each tenant while they run.
#[test]
fn concurrent_tenants_journal_identically_to_serial_cli_runs() {
    let dir = temp_dir("tenants");
    let server = Server::start(Config {
        listen: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        max_active: 2,
        resume: false,
    })
    .unwrap();
    let addr = server.addr();
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = request(
        addr,
        "POST",
        "/campaigns",
        "{\"rounds\": 3, \"seed\": 11, \"iterations\": 6, \"jobs\": 1}",
    );
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"id\":\"c0001\""), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/campaigns",
        "{\"rounds\": 2, \"seed\": 22, \"iterations\": 5, \"jobs\": 2}",
    );
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"id\":\"c0002\""), "{body}");

    // While the tenants run: the fleet metrics page must validate and,
    // once each tenant has finished a round, carry its campaign label.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, page) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        jtelemetry::schema::validate_prometheus(&page)
            .unwrap_or_else(|e| panic!("invalid /metrics page: {e}\n{page}"));
        if page.contains("{campaign=\"c0001\"}") && page.contains("{campaign=\"c0002\"}") {
            break;
        }
        assert!(Instant::now() < deadline, "no per-campaign labels\n{page}");
        std::thread::sleep(Duration::from_millis(50));
    }

    poll_campaign(addr, "c0001", |b| b.contains("\"state\":\"done\""), "done");
    poll_campaign(addr, "c0002", |b| b.contains("\"state\":\"done\""), "done");
    let (_, listing) = request(addr, "GET", "/campaigns", "");
    assert!(
        listing.contains("c0001") && listing.contains("c0002"),
        "{listing}"
    );
    server.shutdown();

    // Serial reference runs with the same seeds and worker counts.
    let ref_dir = temp_dir("tenants_ref");
    std::fs::create_dir_all(&ref_dir).unwrap();
    reference_journal(&ref_dir.join("a.jsonl"), 3, 11, 6, 1);
    reference_journal(&ref_dir.join("b.jsonl"), 2, 22, 5, 2);
    let got_a = std::fs::read(daemon_journal(&dir, "c0001")).unwrap();
    let got_b = std::fs::read(daemon_journal(&dir, "c0002")).unwrap();
    assert_eq!(
        got_a,
        std::fs::read(ref_dir.join("a.jsonl")).unwrap(),
        "tenant c0001's journal diverged from the serial CLI-equivalent run"
    );
    assert_eq!(
        got_b,
        std::fs::read(ref_dir.join("b.jsonl")).unwrap(),
        "tenant c0002's journal diverged from the serial CLI-equivalent run"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Drain mid-campaign, then `--resume`: the re-adopted tenant finishes
/// its journal byte-identically to an uninterrupted run.
#[test]
fn drain_and_resume_converges_to_the_uninterrupted_journal() {
    let dir = temp_dir("drain");
    let server = Server::start(Config {
        listen: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        max_active: 1,
        resume: false,
    })
    .unwrap();
    let addr = server.addr();
    let (status, body) = request(
        addr,
        "POST",
        "/campaigns",
        "{\"rounds\": 12, \"seed\": 7, \"iterations\": 8, \"jobs\": 1}",
    );
    assert_eq!(status, 201, "{body}");

    // Let at least one round land, then drain — the SIGTERM path minus
    // the signal itself (the binary's handler calls the same drain).
    poll_campaign(
        addr,
        "c0001",
        |b| !b.contains("\"completed_rounds\":0,"),
        "first round",
    );
    server.drain();

    let status_text =
        std::fs::read_to_string(dir.join(CAMPAIGNS_DIR).join("c0001").join("status.json")).unwrap();
    assert!(
        status_text.contains("\"state\":\"interrupted\"")
            || status_text.contains("\"state\":\"done\""),
        "{status_text}"
    );
    assert!(
        !status_text.contains("\"state\":\"running\""),
        "drain must settle the persisted state: {status_text}"
    );

    // A fresh daemon re-adopts and finishes it.
    let server = Server::start(Config {
        listen: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        max_active: 1,
        resume: true,
    })
    .unwrap();
    let addr = server.addr();
    poll_campaign(addr, "c0001", |b| b.contains("\"state\":\"done\""), "done");
    server.shutdown();

    let ref_dir = temp_dir("drain_ref");
    std::fs::create_dir_all(&ref_dir).unwrap();
    reference_journal(&ref_dir.join("ref.jsonl"), 12, 7, 8, 1);
    assert_eq!(
        std::fs::read(daemon_journal(&dir, "c0001")).unwrap(),
        std::fs::read(ref_dir.join("ref.jsonl")).unwrap(),
        "drain + resume diverged from the uninterrupted journal"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Corpus campaigns work through the daemon too, over a store the
/// campaign promotes into; the journal matches a serial corpus run. A
/// corpus submission asking for two workers is refused with a 400, and a
/// queued tenant whose `spec.json` an older daemon wrote with a corpus
/// and `jobs: 2` is re-adopted at jobs 1 with the same journal.
#[test]
fn corpus_tenant_journals_identically() {
    let dir = temp_dir("corpus");
    let store_dir = dir.join("store");
    let mut store = jcorpus::Store::init(&store_dir).unwrap();
    mopfuzzer::import_seeds(
        &mut store,
        &mopfuzzer::corpus::builtin(),
        jcorpus::Provenance::Builtin,
    )
    .unwrap();
    store.save().unwrap();
    // The reference and legacy stores are byte-copies made before any
    // campaign runs.
    let ref_store_dir = dir.join("store_ref");
    copy_dir(&store_dir, &ref_store_dir);
    let legacy_store_dir = dir.join("store_legacy");
    copy_dir(&store_dir, &legacy_store_dir);
    let legacy = dir.join("data").join(CAMPAIGNS_DIR).join("c0001");
    std::fs::create_dir_all(&legacy).unwrap();
    std::fs::write(
        legacy.join(SPEC_FILE),
        format!(
            "{{\"rounds\":2,\"seed\":5,\"iterations\":6,\"corpus\":\"{}\",\
             \"jobs\":2,\"round_timeout_ms\":null}}\n",
            legacy_store_dir.display()
        ),
    )
    .unwrap();

    let server = Server::start(Config {
        listen: "127.0.0.1:0".to_string(),
        data_dir: dir.join("data"),
        max_active: 1,
        resume: true,
    })
    .unwrap();
    let addr = server.addr();
    let submit = |jobs: usize| {
        request(
            addr,
            "POST",
            "/campaigns",
            &format!(
                "{{\"rounds\": 2, \"seed\": 5, \"iterations\": 6, \"jobs\": {jobs}, \
                 \"corpus\": \"{}\"}}",
                store_dir.display()
            ),
        )
    };
    let (status, body) = submit(2);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("--jobs"), "{body}");
    let (status, body) = submit(1);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"id\":\"c0002\""), "{body}");
    let adopted = poll_campaign(addr, "c0001", |b| b.contains("\"state\":\"done\""), "done");
    assert!(adopted.contains("\"jobs\":1"), "{adopted}");
    poll_campaign(addr, "c0002", |b| b.contains("\"state\":\"done\""), "done");
    server.shutdown();

    let ref_journal = dir.join("ref.jsonl");
    let mut ref_store = jcorpus::Store::open(&ref_store_dir).unwrap();
    let config = mopfuzzer::CampaignConfig {
        iterations_per_seed: 6,
        variant: mopfuzzer::Variant::Full,
        rounds: 2,
        pool: jvmsim::JvmSpec::differential_pool(),
        rng_seed: 5,
        supervisor: mopfuzzer::SupervisorConfig::default(),
        fault: None,
        jobs: 1,
    };
    mopfuzzer::run_corpus_campaign(
        &mut ref_store,
        &config,
        &mopfuzzer::CorpusOptions::default(),
        Some(&ref_journal),
        None,
    )
    .unwrap();
    // The journals agree except for the header's store path (an absolute
    // path baked into the corpus header), so compare line by line with
    // the paths normalized.
    let norm = |text: &str, dir: &Path| text.replace(&dir.display().to_string(), "STORE");
    let want = norm(
        &std::fs::read_to_string(&ref_journal).unwrap(),
        &ref_store_dir,
    );
    for (id, store) in [("c0001", &legacy_store_dir), ("c0002", &store_dir)] {
        let got = std::fs::read_to_string(daemon_journal(&dir.join("data"), id)).unwrap();
        assert_eq!(
            norm(&got, store),
            want,
            "corpus tenant {id} journal diverged from the serial run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The removed oracle worker count is refused loudly, pointing at
/// `--jobs`, instead of being silently ignored.
#[test]
fn removed_oracle_jobs_field_is_rejected() {
    let dir = temp_dir("oracle_jobs");
    let server = Server::start(Config::new("127.0.0.1:0", &dir)).unwrap();
    let (status, body) = request(
        server.addr(),
        "POST",
        "/campaigns",
        "{\"rounds\": 1, \"jobs\": 1, \"oracle_jobs\": 2}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("--jobs"), "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flood of idle connections costs at most `MAX_CONNECTIONS` threads:
/// the next connection gets a 503 from the accept thread, and the daemon
/// serves again once the flood closes.
#[test]
fn connection_flood_is_capped_with_503() {
    let dir = temp_dir("flood");
    let server = Server::start(Config::new("127.0.0.1:0", &dir)).unwrap();
    let addr = server.addr();
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect to daemon"))
        .collect();
    // Connections are accepted in order, so this one finds every slot
    // taken by the idle ones.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = String::new();
    extra.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");

    drop(idle);
    // The idle threads exit asynchronously; until they do, a probe may
    // still be refused (and its unread request can reset the socket).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut probe = TcpStream::connect(addr).unwrap();
        let _ = probe.write_all(b"GET /healthz HTTP/1.1\r\nHost: d\r\n\r\n");
        let mut response = String::new();
        let _ = probe.read_to_string(&mut response);
        if response.starts_with("HTTP/1.1 200 ") {
            assert!(response.ends_with("\r\n\r\nok\n"), "{response}");
            break;
        }
        assert!(Instant::now() < deadline, "daemon never recovered");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
