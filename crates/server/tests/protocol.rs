//! Protocol-robustness regression tests: malformed, oversized or
//! garbage request lines must each produce a structured `error`
//! response and leave the connection serving follow-up requests, and a
//! submit whose diagnosis panics must cost one `error`, not a worker.
//! Also pins the kernel surface: `"kernel": "screened"` + `top_k`
//! submits serve rankings bit-identical to an in-process screened
//! session, and the test-only scalar oracles are not on the wire,
//! neither by kernel name nor through the config. Sample counts whose
//! instance batch would exceed the cache budget are refused before any
//! sampling.

use sdd_core::dictionary::SimKernel;
use sdd_core::inject::{CampaignConfig, CampaignEnv, ClockPolicy};
use sdd_core::session::ArtifactLayer;
use sdd_core::ObserveKernel;
use sdd_server::{Client, Request, Response, Server, ServerConfig, WireBehavior, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn start_server() -> SocketAddr {
    start_server_with(ServerConfig::default())
}

fn start_server_with(config: ServerConfig) -> SocketAddr {
    let server = Server::bind(config).expect("bind");
    let addr = server.addr();
    std::thread::spawn(move || server.run());
    addr
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_with_retry(&addr.to_string(), Duration::from_secs(5)).expect("connect")
}

/// The connection must answer a ping after whatever abuse preceded it.
fn assert_alive(client: &mut Client) {
    let pong = client.request(&Request::new("ping")).expect("ping");
    assert_eq!(pong.op, "pong", "connection must stay alive: {pong:?}");
}

#[test]
fn screened_submit_is_bit_identical_to_in_process_screened_session() {
    let config = CampaignConfig::quick(5);
    let mut client = connect(start_server());
    let mut request = Request::new("submit");
    request.tenant = "screened-t".into();
    request.circuit = "s27".into();
    request.chips = vec![0, 1, 2];
    request.config = Some(config.clone());
    request.kernel = "screened".into();
    request.top_k = Some(3);
    let responses = client.submit(&request).expect("screened submit");
    assert_eq!(responses.len(), 3, "one outcome per chip: {responses:?}");

    // The in-process twin: same layer shape (cold, store-less), same
    // kernel + top_k pinned on the session.
    let profile = sdd_netlist::profiles::by_name("s27").unwrap();
    let circuit = sdd_netlist::generator::generate(&profile.to_config(config.seed))
        .unwrap()
        .to_combinational()
        .unwrap();
    let env = CampaignEnv::new(&circuit, &config).unwrap();
    let session = ArtifactLayer::new()
        .session("local")
        .with_kernel(SimKernel::Screened)
        .with_screen_top_k(3);

    let mut compared = 0;
    for (chip, response) in responses.iter().enumerate() {
        assert_eq!(response.op, "outcome", "{response:?}");
        let local = session.diagnose_instance(
            &circuit,
            &env.timing,
            &env.defect_model,
            env.circuit_clk,
            &config,
            chip,
        );
        match local {
            Some(local) => {
                assert_eq!(response.injected, Some(local.injected.index() as u64));
                assert_eq!(
                    response.rankings, local.rankings,
                    "screened-served rankings for chip {chip} must be bit-identical"
                );
                compared += 1;
            }
            None => assert_eq!(
                response.injected, None,
                "chip {chip} undetectable both ways"
            ),
        }
    }
    assert!(compared > 0, "at least one chip must produce a ranking");

    // The pin is sticky: re-submitting under the same tenant with a
    // different kernel or top_k is a request error.
    let mut conflict = request.clone();
    conflict.kernel = "batched".into();
    conflict.top_k = None;
    client.send(&conflict).expect("send");
    let response = client.recv().expect("recv").expect("response");
    assert_eq!(response.op, "error", "{response:?}");
    assert!(response.error.contains("pinned"), "{response:?}");
    let mut retopk = request.clone();
    retopk.top_k = Some(7);
    client.send(&retopk).expect("send");
    let response = client.recv().expect("recv").expect("response");
    assert_eq!(response.op, "error", "{response:?}");
    assert!(response.error.contains("top_k"), "{response:?}");
    assert_alive(&mut client);
}

#[test]
fn malformed_json_yields_error_and_connection_survives() {
    let mut client = connect(start_server());
    for bad in [
        "{not json",
        "[1, 2, 3]",
        "42",
        "\"just a string\"",
        "{\"v\": 1}",                      // missing mandatory `op`
        "{\"op\": 7}",                     // op of the wrong type
        "{\"op\": \"no-such-op\"}",        // unknown op
        "{\"op\": \"submit\", \"v\": 99}", // unsupported protocol version
        "null",
    ] {
        client.send_raw(bad).expect("send");
        let response = client.recv().expect("recv").expect("response");
        assert_eq!(response.op, "error", "for line {bad:?}: {response:?}");
        assert!(!response.error.is_empty(), "error text for {bad:?}");
    }
    assert_alive(&mut client);
}

#[test]
fn oversized_line_is_drained_not_fatal() {
    let mut client = connect(start_server());
    let huge = format!(
        "{{\"op\": \"ping\", \"tenant\": \"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    client.send_raw(&huge).expect("send");
    let response = client.recv().expect("recv").expect("response");
    assert_eq!(response.op, "error");
    assert!(response.error.contains("exceeds"), "{response:?}");
    assert_alive(&mut client);
}

#[test]
fn invalid_utf8_yields_error_not_disconnect() {
    let addr = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&[0xff, 0xfe, 0x80, b'{', b'}', b'\n'])
        .expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response: Response = serde_json::from_str(&line).expect("structured response");
    assert_eq!(response.op, "error");
    assert!(response.error.contains("UTF-8"), "{response:?}");

    // Follow-up on the same socket still works.
    stream.write_all(b"{\"op\": \"ping\"}\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let response: Response = serde_json::from_str(&line).expect("structured response");
    assert_eq!(response.op, "pong");
}

/// Deterministic fuzz sweep: every garbage line gets exactly one
/// structured response and never kills the connection.
#[test]
fn garbage_lines_always_get_one_structured_response() {
    let mut client = connect(start_server());
    let alphabet: &[u8] = b"{}[]\",:xyz0189 \\ttrue";
    let mut state: u64 = 0x5DD_CAFE;
    for round in 0..64 {
        let len = 1 + (state % 97) as usize;
        let line: String = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                alphabet[(state >> 33) as usize % alphabet.len()] as char
            })
            .collect();
        if line.trim().is_empty() {
            continue; // blank lines are legitimately ignored
        }
        client.send_raw(&line).expect("send");
        let response = client.recv().expect("recv").expect("response");
        // Random bytes never form a valid request, so every line must
        // come back as a structured error (round {round}).
        assert_eq!(
            response.op, "error",
            "round {round}, line {line:?}: {response:?}"
        );
    }
    assert_alive(&mut client);
}

fn s27_submit(tenant: &str, config: CampaignConfig) -> Request {
    let mut request = Request::new("submit");
    request.tenant = tenant.into();
    request.circuit = "s27".into();
    request.chips = vec![0];
    request.config = Some(config);
    request
}

#[test]
fn panicking_submit_gets_one_error_and_the_worker_survives() {
    // One worker: if the panic killed it, the healthy submit would hang.
    let mut client = connect(start_server_with(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    let mut broken = CampaignConfig::quick(1);
    broken.dictionary.n_samples = 0;
    let responses = client
        .submit(&s27_submit("broken", broken))
        .expect("panicking submit still answers");
    assert_eq!(responses.len(), 1, "exactly one response: {responses:?}");
    assert_eq!(responses[0].op, "error", "{responses:?}");
    assert_eq!(responses[0].tenant, "broken");
    assert!(!responses[0].error.is_empty());
    assert_alive(&mut client);

    let responses = client
        .submit(&s27_submit("healthy", CampaignConfig::quick(1)))
        .expect("healthy submit");
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_eq!(responses[0].op, "outcome", "{responses:?}");
}

#[test]
fn scalar_kernel_is_not_on_the_wire() {
    let mut client = connect(start_server());
    let mut request = s27_submit("oracle", CampaignConfig::quick(1));
    request.kernel = "scalar".into();
    let responses = client.submit(&request).expect("submit");
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_eq!(responses[0].op, "error", "{responses:?}");
    assert!(
        responses[0].error.contains("unknown kernel"),
        "{responses:?}"
    );
    assert_alive(&mut client);

    // Neither oracle is reachable through the config either.
    let dictionary = CampaignConfig::quick(1).with_kernel(SimKernel::Scalar);
    let observe = CampaignConfig::quick(1).with_observe_kernel(ObserveKernel::Scalar);
    for (route, config) in [("dictionary.kernel", dictionary), ("observe", observe)] {
        let responses = client
            .submit(&s27_submit("oracle", config))
            .expect("submit");
        assert_eq!(responses.len(), 1, "{route}: {responses:?}");
        assert_eq!(responses[0].op, "error", "{route}: {responses:?}");
        assert!(responses[0].error.contains(route), "{route}: {responses:?}");
        assert_alive(&mut client);
    }
}

#[test]
fn rejected_behavior_submit_gets_one_error_and_no_stray_done() {
    // A behaviour error used to be followed by a `done`, which the next
    // request on the connection then read as its own answer.
    let mut client = connect(start_server());
    let mut request = Request::new("submit");
    request.tenant = "empty".into();
    request.circuit = "s27".into();
    request.behavior = Some(WireBehavior {
        patterns: Vec::new(),
        fails: Vec::new(),
        clk: 1.0,
    });
    let responses = client.submit(&request).expect("submit");
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_eq!(responses[0].op, "error", "{responses:?}");
    assert!(responses[0].error.contains("no patterns"), "{responses:?}");
    assert_alive(&mut client);
}

#[test]
fn sample_counts_past_the_batch_budget_are_refused_before_sampling() {
    // 2^40 samples of every arc would abort the process on allocation;
    // each must cost one error, and the server must keep serving.
    let mut client = connect(start_server_with(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    let mut dictionary = CampaignConfig::quick(1);
    dictionary.dictionary.n_samples = 1 << 40;
    let mut sta = CampaignConfig::quick(1).with_clock(ClockPolicy::CircuitQuantile(0.9));
    sta.sta_samples = 1 << 40;
    for (route, config) in [("dictionary.n_samples", dictionary), ("sta_samples", sta)] {
        let responses = client
            .submit(&s27_submit("greedy", config))
            .expect("submit");
        assert_eq!(responses.len(), 1, "{route}: {responses:?}");
        assert_eq!(responses[0].op, "error", "{route}: {responses:?}");
        assert!(responses[0].error.contains(route), "{route}: {responses:?}");
        assert_alive(&mut client);
    }
    let responses = client
        .submit(&s27_submit("healthy", CampaignConfig::quick(1)))
        .expect("healthy submit");
    assert_eq!(responses[0].op, "outcome", "{responses:?}");
}
