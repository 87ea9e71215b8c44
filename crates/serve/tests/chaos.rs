//! Chaos suite for the live daemon: a fault plan is installed in the
//! server process, then real HTTP requests drive the injected panics,
//! forced timeouts, and delays. Requires the `fault-inject` feature.

mod common;

use std::time::{Duration, Instant};

use common::{escape, flight_path, request, spec_dsl, TestServer};
use rascad_fault::{FaultKind, FaultPlan, PlanGuard};
use rascad_obs::json;
use rascad_serve::ServeConfig;

/// The fault registry is process-global; serialize plan installs.
static PLAN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn solve_body() -> String {
    format!(r#"{{"spec":"{}"}}"#, escape(&spec_dsl()))
}

#[test]
fn injected_worker_panic_is_a_typed_500_and_the_server_keeps_serving() {
    let _l = lock();
    let flight = flight_path();
    std::fs::remove_file(&flight).ok();
    let srv = TestServer::start(ServeConfig::default());

    // Clean baseline response, bit-for-bit reference.
    let (status, _, clean) = request(srv.addr, "POST", "/v1/solve", &solve_body());
    assert_eq!(status, 200, "{clean}");

    // Panic injection on block B: typed 500, kind "panic".
    {
        let _g = PlanGuard::install(FaultPlan::single("SrvSpec/B", FaultKind::Panic));
        let (status, _, body) = request(srv.addr, "POST", "/v1/solve", &solve_body());
        assert_eq!(status, 500, "{body}");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("panic"));
    }

    // The incident dumped the flight recorder.
    assert!(flight.exists(), "a 500 must dump the flight rings to {}", flight.display());

    // Uninjected requests after the incident are bit-identical to the
    // pre-incident reference: no poisoned cache, no leaked state.
    let (status, _, after) = request(srv.addr, "POST", "/v1/solve", &solve_body());
    assert_eq!(status, 200);
    assert_eq!(after, clean, "post-incident response must match the pre-incident bytes");

    let summary = srv.stop();
    assert!(summary.failures >= 1);
    assert!(summary.drained_clean);
    std::fs::remove_file(&flight).ok();
}

#[test]
fn injected_timeout_maps_to_the_deadline_error_family() {
    let _l = lock();
    let srv = TestServer::start(ServeConfig::default());
    let _g = PlanGuard::install(FaultPlan::single("SrvSpec/A", FaultKind::Timeout));
    let (status, _, body) = request(srv.addr, "POST", "/v1/solve", &solve_body());
    // A forced solver timeout exhausts the ladder with timeouts on
    // every rung — the API reports that as the typed deadline family.
    assert_eq!(status, 504, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("deadline"));
}

#[test]
fn injected_delay_stalls_but_answers_correctly_and_best_effort_degrades() {
    let _l = lock();
    let srv = TestServer::start(ServeConfig::default());

    let (status, _, clean) = request(srv.addr, "POST", "/v1/solve", &solve_body());
    assert_eq!(status, 200);

    // Delay on A: the request stalls at least the seeded 10+ ms but
    // succeeds with the identical numbers.
    {
        let _g = PlanGuard::install(FaultPlan::single("SrvSpec/A", FaultKind::Delay));
        let t0 = Instant::now();
        let (status, _, body) = request(srv.addr, "POST", "/v1/solve", &solve_body());
        assert_eq!(status, 200, "{body}");
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(body, clean, "a stall must not change the numbers");
        let fired = rascad_fault::fired();
        assert!(fired.iter().any(|(p, k)| p == "SrvSpec/A" && *k == FaultKind::Delay), "{fired:?}");
    }

    // Best-effort under a NotConverged fault: 200 with degraded=true,
    // availability bounds, and the failed block listed.
    {
        let _g = PlanGuard::install(FaultPlan::single("SrvSpec/B", FaultKind::NotConverged));
        let (status, _, body) = request(
            srv.addr,
            "POST",
            "/v1/solve",
            &format!(r#"{{"spec":"{}","best_effort":true}}"#, escape(&spec_dsl())),
        );
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
        let bounds = v.get("availability_bounds").unwrap().as_array().unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].as_f64().unwrap() <= bounds[1].as_f64().unwrap());
        let failed = v.get("failed").unwrap().as_array().unwrap();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].get("path").unwrap().as_str(), Some("SrvSpec/B"));
    }
}
