//! Shared test harness: start a real server on a free port, speak
//! HTTP/1.1 to it over a plain socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Once;
use std::time::Duration;

use rascad_serve::{ServeConfig, Server, ShutdownHandle};

/// A running server plus the bits tests need to drive and stop it.
pub struct TestServer {
    pub addr: SocketAddr,
    pub handle: ShutdownHandle,
    runner: Option<std::thread::JoinHandle<rascad_serve::ServeSummary>>,
}

impl TestServer {
    /// Binds on a free port and serves on a background thread.
    pub fn start(cfg: ServeConfig) -> TestServer {
        flight_path();
        let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..cfg };
        let server = Server::bind(cfg).expect("bind 127.0.0.1:0");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run());
        TestServer { addr, handle, runner: Some(runner) }
    }

    /// Graceful shutdown; returns the run summary.
    pub fn stop(mut self) -> rascad_serve::ServeSummary {
        self.handle.shutdown();
        self.runner.take().unwrap().join().expect("server thread")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(r) = self.runner.take() {
            r.join().ok();
        }
    }
}

/// Where every server in this test process writes its flight dump: a
/// per-process file in the system temp directory, exported once as
/// `RASCAD_FLIGHT_PATH` so no test leaves a dump in the working
/// directory.
pub fn flight_path() -> PathBuf {
    static EXPORT: Once = Once::new();
    let path =
        std::env::temp_dir().join(format!("rascad-serve-test-flight-{}.jsonl", std::process::id()));
    EXPORT.call_once(|| {
        std::fs::remove_file(&path).ok();
        std::env::set_var("RASCAD_FLIGHT_PATH", &path);
    });
    path
}

/// One HTTP exchange on a fresh connection. Returns status, headers
/// (lower-cased names), body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

/// Splits a raw HTTP/1.1 response into status, headers, body.
pub fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).expect("status code").parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// A tiny two-block spec, JSON-escaped into a `/v1/specs` body.
pub fn spec_dsl() -> String {
    use rascad_spec::units::Hours;
    use rascad_spec::{BlockParams, Diagram, GlobalParams, SystemSpec};
    let mut root = Diagram::new("SrvSpec");
    root.push(BlockParams::new("A", 2, 1).with_mtbf(Hours(10_000.0)));
    root.push(BlockParams::new("B", 1, 1).with_mtbf(Hours(50_000.0)));
    SystemSpec::new(root, GlobalParams::default()).to_dsl()
}

/// JSON-string-escapes a DSL payload for embedding in a body.
pub fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}
