//! Live-server integration suite: the full request lifecycle over real
//! sockets — store/solve/sweep/lint, health, metrics, shedding,
//! deadlines, malformed input, and graceful drain.

mod common;

use std::time::Duration;

use common::{escape, flight_path, parse_response, request, spec_dsl, TestServer};
use rascad_obs::json;
use rascad_serve::{AdmissionConfig, ServeConfig};

/// Header lookup by lower-case name.
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

fn default_server() -> TestServer {
    TestServer::start(ServeConfig::default())
}

#[test]
fn health_ready_and_unknown_routes() {
    let srv = default_server();
    let (status, _, _) = request(srv.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _, _) = request(srv.addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    let (status, _, body) = request(srv.addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    assert!(body.contains("not-found"), "{body}");
    let (status, _, _) = request(srv.addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
}

#[test]
fn store_solve_and_sweep_round_trip() {
    let srv = default_server();
    let spec = escape(&spec_dsl());

    let (status, _, body) = request(
        srv.addr,
        "POST",
        "/v1/specs",
        &format!(r#"{{"tenant":"acme","name":"web","spec":"{spec}"}}"#),
    );
    assert_eq!(status, 201, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("blocks").unwrap().as_i64(), Some(2));

    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", r#"{"tenant":"acme","spec_name":"web"}"#);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let avail = v.get("system").unwrap().get("availability").unwrap().as_f64().unwrap();
    assert!(avail > 0.999 && avail <= 1.0, "{avail}");
    let blocks = v.get("blocks").unwrap().as_array().unwrap();
    assert_eq!(blocks.len(), 2);
    assert!(blocks
        .iter()
        .all(|b| { b.get("certificate").unwrap().get("verdict").unwrap().as_str() == Some("ok") }));

    // Tenant isolation: the other tenant cannot see the spec.
    let (status, _, _) =
        request(srv.addr, "POST", "/v1/solve", r#"{"tenant":"evil","spec_name":"web"}"#);
    assert_eq!(status, 404);

    let (status, _, body) = request(
        srv.addr,
        "POST",
        "/v1/sweep",
        &format!(
            r#"{{"spec":"{spec}","block":"A","param":"mtbf","from":5000,"to":50000,"points":4}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("points").unwrap().as_array().unwrap().len(), 4);

    // Block names may contain `/`, as the library's "I/O Board" does.
    let slashed = escape(&spec_dsl().replace(r#"block "A""#, r#"block "I/O Board""#));
    let (status, _, body) = request(
        srv.addr,
        "POST",
        "/v1/sweep",
        &format!(
            r#"{{"spec":"{slashed}","block":"I/O Board","param":"mtbf","from":5000,"to":50000,"points":3}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");
}

#[test]
fn lint_and_malformed_bodies() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/lint", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("blocking").unwrap().as_bool(), Some(false));

    // Typed 400s: non-JSON, non-object, bad spec text.
    for bad in ["this is not json", "[1,2,3]", r#"{"spec":"diagram \"X\" {"}"#] {
        let (status, _, body) = request(srv.addr, "POST", "/v1/solve", bad);
        assert_eq!(status, 400, "{bad} -> {body}");
        let v = json::parse(&body).unwrap();
        assert!(v.get("error").unwrap().get("kind").unwrap().as_str().is_some(), "{body}");
    }
}

#[test]
fn identical_requests_are_bit_identical_responses() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let body_req = format!(r#"{{"spec":"{spec}"}}"#);
    let (s1, _, b1) = request(srv.addr, "POST", "/v1/solve", &body_req);
    let (s2, _, b2) = request(srv.addr, "POST", "/v1/solve", &body_req);
    assert_eq!(s1, 200);
    assert_eq!((s1, b1), (s2, b2), "same request must produce byte-identical bodies");
}

#[test]
fn admission_sheds_with_retry_after_when_full() {
    // A server whose whole capacity is one in-flight request.
    let srv = TestServer::start(ServeConfig {
        admission: AdmissionConfig { max_inflight: 1, max_per_tenant: 1, retry_after_secs: 7 },
        ..ServeConfig::default()
    });
    let spec = escape(&spec_dsl());

    // Fill the slot with a big chain bounded by a 3 s deadline: the
    // cancellation machinery keeps the slot busy for a deterministic
    // window, then returns a typed 504 — no dependence on raw solver
    // speed in debug builds.
    let addr = srv.addr;
    let big = escape(&spec_dsl().replace("quantity = 2", "quantity = 100000"));
    let holder = std::thread::spawn(move || {
        request(addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{big}","deadline_ms":3000}}"#))
    });
    std::thread::sleep(Duration::from_millis(300));

    // …then watch the next request shed 429 with the hint.
    let mut sheds = 0;
    for _ in 0..20 {
        let (status, headers, body) =
            request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
        if status == 429 {
            assert_eq!(header(&headers, "retry-after"), Some("7"), "{body}");
            assert!(body.contains("shed"), "{body}");
            sheds += 1;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (holder_status, _, holder_body) = holder.join().unwrap();
    assert_eq!(holder_status, 504, "holder must finish typed: {holder_body}");
    assert!(sheds > 0, "the slot was held ~3 s; a concurrent request must shed");
}

#[test]
fn deadline_on_a_large_chain_is_a_typed_504_within_twice_the_budget() {
    let srv = default_server();
    // quantity = 100000 with redundancy expands birth-death style to a
    // ~10^5-state chain: seconds of sparse solve, far beyond 50 ms.
    let big = escape(&spec_dsl().replace("quantity = 2", "quantity = 100000"));
    let started = std::time::Instant::now();
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{big}","deadline_ms":50}}"#));
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("deadline"));
    // "within 2× deadline" for the solver abort; generous socket slack
    // on top keeps this robust on loaded CI machines.
    assert!(
        elapsed < Duration::from_millis(2000),
        "cancellation must abort promptly, took {elapsed:?}"
    );

    // Concurrent requests with sane budgets still finish.
    let spec = escape(&spec_dsl());
    let (status, _, body) =
        request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200, "{body}");
}

#[test]
fn twenty_keep_alive_requests_on_one_connection_take_under_200_ms() {
    use std::io::{Read, Write};
    let srv = default_server();
    let mut stream = std::net::TcpStream::connect(srv.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let started = std::time::Instant::now();
    for _ in 0..20 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        // One whole response: the head byte by byte, then the body.
        let mut head = Vec::new();
        while !head.ends_with(b"\r\n\r\n") {
            let mut byte = [0u8];
            stream.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let (status, headers, _) = parse_response(&head);
        assert_eq!(status, 200);
        let length = header(&headers, "content-length").unwrap().parse().unwrap();
        stream.read_exact(&mut vec![0; length]).unwrap();
    }
    // A response split over two writes waits for the client's delayed
    // ACK (about 40 ms) on every request after the first.
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(200), "20 keep-alive requests took {elapsed:?}");
}

#[test]
fn metrics_page_validates_and_counts_requests() {
    let srv = default_server();
    let spec = escape(&spec_dsl());
    let (status, _, _) = request(srv.addr, "POST", "/v1/solve", &format!(r#"{{"spec":"{spec}"}}"#));
    assert_eq!(status, 200);
    let (status, headers, page) = request(srv.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type").unwrap().starts_with("text/plain"));
    rascad_obs::prometheus::validate(&page).expect("scrape page must be exposition-valid");
    assert!(page.contains("serve_requests"), "{page}");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let srv = TestServer::start(ServeConfig::default());
    let addr = srv.addr;
    // An in-flight request with a deterministic ~1.5 s runtime: a big
    // chain under a best-effort deadline degrades to a 200 instead of
    // depending on debug-build solver speed.
    let big = escape(&spec_dsl().replace("quantity = 2", "quantity = 100000"));
    let inflight = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/solve",
            &format!(r#"{{"spec":"{big}","deadline_ms":1500,"best_effort":true}}"#),
        )
    });
    std::thread::sleep(Duration::from_millis(300));
    let summary = srv.stop();
    let (status, _, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "in-flight solve must complete through the drain: {body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true), "{body}");
    assert!(summary.drained_clean, "{summary:?}");
    assert!(summary.requests >= 1);
    // The degraded solve is an incident, so the drain dumped the flight
    // rings, and the dump went to the test's temp path.
    let dump = std::fs::read_to_string(flight_path()).expect("flight dump at RASCAD_FLIGHT_PATH");
    assert!(dump.lines().next().unwrap_or("").contains(r#""flight_recorder":"rascad""#));
    std::fs::remove_file(flight_path()).ok();
}
