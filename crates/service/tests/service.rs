//! Integration tests for the resilient service: admission, deadlines,
//! cancellation, retry exhaustion, panic isolation, checkpoint
//! preemption, chaos worker kills, and the Unix-socket protocol.

use pum_backend::DatapathKind;
use service::{
    server, AdmitError, FaultRequest, JobError, JobPhase, JobSpec, Priority, ProgramSource,
    Service, ServiceConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ADD: &str = "ensemble h0.v0 {\n  add r0 r1 r2\n}";

/// A program of `ensembles` top-level compute ensembles, each running a
/// dynamic `for` loop of `r1` (lane 0) iterations that accumulates +1
/// into r2. Crosses a RunControl boundary per ensemble, so it is
/// cancellable/preemptible mid-run; total work scales with
/// `ensembles * iters` and the final r2 lane-0 value is exactly
/// `ensembles * iters` — a resume-correctness oracle.
fn slow_text(ensembles: usize) -> String {
    let mut s = String::new();
    for _ in 0..ensembles {
        s.push_str("ensemble h0.v0 {\n  for r0 < r1 {\n    add r2 r3 r2\n  }\n}\n");
    }
    s
}

/// A service config whose submission ceilings admit the deliberately
/// oversized slow programs used by the cancellation/preemption tests.
fn roomy_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        limits: service::SubmissionLimits {
            max_program_instructions: 1 << 16,
            max_statements: 1 << 14,
            max_dynamic_loops: 1 << 12,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn slow_spec(tenant: &str, ensembles: usize, iters: u64) -> JobSpec {
    let mut spec = JobSpec::ez(tenant, DatapathKind::Racer, &slow_text(ensembles));
    spec.inputs.push(service::RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![iters] });
    spec.inputs.push(service::RegInit { rfh: 0, vrf: 0, reg: 3, values: vec![1] });
    spec.outputs.push(service::RegRef { rfh: 0, vrf: 0, reg: 2 });
    spec
}

fn add_spec(tenant: &str) -> JobSpec {
    let mut spec = JobSpec::ez(tenant, DatapathKind::Racer, ADD);
    spec.inputs.push(service::RegInit { rfh: 0, vrf: 0, reg: 0, values: vec![20] });
    spec.inputs.push(service::RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![22] });
    spec.outputs.push(service::RegRef { rfh: 0, vrf: 0, reg: 2 });
    spec
}

#[test]
fn happy_path_computes_and_reports_stats() {
    let service = Service::start(ServiceConfig { workers: 2, ..Default::default() });
    let id = service.submit(add_spec("alice")).unwrap();
    let outcome = service.wait(id).unwrap();
    let result = outcome.result.expect("job succeeds");
    assert_eq!(result.outputs[0].values[0], 42);
    assert!(result.cycles > 0);
    assert!(result.instructions > 0);
    assert_eq!(outcome.attempts, 1);
    assert_eq!(outcome.tenant, "alice");
    let health = service.health();
    assert_eq!(health.completed, 1);
    assert_eq!(health.failed, 0);
    service.shutdown();
}

#[test]
fn wait_on_unknown_job_returns_none() {
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    assert!(service.wait(999).is_none());
    assert!(service.status(999).is_none());
    service.shutdown();
}

#[test]
fn parse_errors_are_rejected_at_admission() {
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let err = service
        .submit(JobSpec::ez("alice", DatapathKind::Racer, "ensemble h0.v0 {\n  frobnicate\n}"))
        .unwrap_err();
    assert!(matches!(err, AdmitError::ParseError { .. }), "got {err:?}");
    service.shutdown();
}

#[test]
fn deeply_nested_sources_are_rejected_at_admission() {
    // ~3 MB of nested `if`s: a typed rejection, not a stack overflow.
    let depth = 200_000;
    let text =
        format!("ensemble h0.v0 {{\n{}{}}}\n", "if r0 > r1 {\n".repeat(depth), "}\n".repeat(depth));
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let err = service.submit(JobSpec::ez("alice", DatapathKind::Racer, &text)).unwrap_err();
    assert!(matches!(err, AdmitError::ParseError { .. }), "got {err:?}");
    // Assembly is line-oriented and does not nest: a long source is a
    // typed rejection too.
    let asm = "COMPUTE h0 v0\n".repeat(depth);
    let spec = JobSpec { program: ProgramSource::Asm(asm), ..add_spec("alice") };
    let err = service.submit(spec).unwrap_err();
    assert!(matches!(err, AdmitError::ParseError { .. }), "got {err:?}");
    service.shutdown();
}

#[test]
fn quota_queue_and_shed_ladder() {
    // No workers: nothing drains, so admission pressure is deterministic.
    let config =
        ServiceConfig { workers: 0, queue_capacity: 4, tenant_quota: 2, ..Default::default() };
    let service = Service::start(config);

    service.submit(add_spec("a")).unwrap();
    service.submit(add_spec("a")).unwrap();
    let err = service.submit(add_spec("a")).unwrap_err();
    assert!(
        matches!(&err, AdmitError::TenantQuotaExceeded { tenant, quota: 2 } if tenant == "a"),
        "got {err:?}"
    );

    // Occupancy 2/4 = 50%: still healthy, a third tenant fits.
    service.submit(add_spec("b")).unwrap();
    // 3/4 = 75%: degraded — Low is shed, Normal still passes.
    let err = service.submit(JobSpec { priority: Priority::Low, ..add_spec("c") }).unwrap_err();
    assert!(matches!(err, AdmitError::LoadShed { .. }), "got {err:?}");
    assert!(service.health().shed >= 1);
    service.submit(add_spec("c")).unwrap();
    // 4/4: critical — even High is admitted past the shed gate but hits
    // the hard capacity wall.
    let err = service.submit(JobSpec { priority: Priority::High, ..add_spec("d") }).unwrap_err();
    assert!(matches!(err, AdmitError::QueueFull { capacity: 4 }), "got {err:?}");

    // Graceful shutdown drains the queue as typed cancellations.
    let ids: Vec<_> = (1..=4).collect();
    service.shutdown();
    for id in ids {
        let outcome = service.wait(id).unwrap();
        assert!(matches!(outcome.result, Err(JobError::Cancelled)), "job {id}");
    }
    let err = service.submit(add_spec("e")).unwrap_err();
    assert!(matches!(err, AdmitError::ShuttingDown));
}

#[test]
fn queued_deadline_expires_without_a_worker() {
    let service = Service::start(ServiceConfig { workers: 0, ..Default::default() });
    let mut spec = add_spec("alice");
    spec.deadline_ms = Some(10);
    let id = service.submit(spec).unwrap();
    let outcome = service.wait(id).unwrap();
    assert!(matches!(outcome.result, Err(JobError::DeadlineExceeded)), "got {outcome:?}");
    service.shutdown();
}

#[test]
fn running_deadline_cancels_at_a_boundary() {
    let service = Service::start(roomy_config(1));
    let mut spec = slow_spec("alice", 400, 400);
    spec.deadline_ms = Some(30);
    let started = Instant::now();
    let id = service.submit(spec).unwrap();
    let outcome = service.wait(id).unwrap();
    assert!(matches!(outcome.result, Err(JobError::DeadlineExceeded)), "got {outcome:?}");
    // Cooperative cancellation, not a hang: terminates well before the
    // program would have finished.
    assert!(started.elapsed() < Duration::from_secs(20));
    service.shutdown();
}

#[test]
fn cancel_stops_a_running_job() {
    let service = Service::start(roomy_config(1));
    let id = service.submit(slow_spec("alice", 400, 400)).unwrap();
    // Wait until it is actually claimed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.status(id) != Some(JobPhase::Running) {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(service.cancel(id));
    let outcome = service.wait(id).unwrap();
    assert!(matches!(outcome.result, Err(JobError::Cancelled)), "got {outcome:?}");
    // Cancelling a terminal job is a no-op.
    assert!(!service.cancel(id));
    service.shutdown();
}

#[test]
fn runaway_program_is_fenced_by_the_watchdog() {
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    // r1 never satisfied: `while r0 < r1` with r1 = lane count ceiling —
    // loop body does not touch r0, so the EFI spins until the in-ensemble
    // instruction watchdog trips.
    let text = "ensemble h0.v0 {\n  while r0 < r1 {\n    add r2 r3 r2\n  }\n}";
    let mut spec = JobSpec::ez("alice", DatapathKind::Racer, text);
    spec.inputs.push(service::RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![5] });
    spec.inputs.push(service::RegInit { rfh: 0, vrf: 0, reg: 3, values: vec![1] });
    let id = service.submit(spec).unwrap();
    let outcome = service.wait(id).unwrap();
    assert!(matches!(outcome.result, Err(JobError::RunawayProgram)), "got {outcome:?}");
    service.shutdown();
}

#[test]
fn fault_storm_exhausts_the_retry_budget() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        retry_budget: 2,
        backoff_base_ms: 1,
        backoff_max_ms: 4,
        ..Default::default()
    });
    let mut spec = add_spec("alice");
    // Saturating fault rate: every machine-level retry and restart also
    // faults, so every service-level attempt fails.
    spec.fault = Some(FaultRequest { seed: 7, transient_rate: 1.0 });
    let id = service.submit(spec).unwrap();
    let outcome = service.wait(id).unwrap();
    match outcome.result {
        Err(JobError::FaultBudgetExhausted { attempts, ref last }) => {
            assert_eq!(attempts, 3, "1 initial + 2 retries");
            assert!(!last.is_empty());
        }
        other => panic!("got {other:?}"),
    }
    assert_eq!(outcome.attempts, 3);
    let health = service.health();
    assert!(health.fault_retries >= 3);
    service.shutdown();
}

#[test]
fn poison_job_is_isolated_and_the_worker_survives() {
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let mut poison = JobSpec::ez("mallory", DatapathKind::Racer, ADD);
    poison.program = ProgramSource::PoisonPanic;
    let id = service.submit(poison).unwrap();
    let outcome = service.wait(id).unwrap();
    match outcome.result {
        Err(JobError::WorkerPanic { ref payload }) => {
            assert!(payload.contains("detonated"), "payload: {payload}");
        }
        other => panic!("got {other:?}"),
    }
    // The worker that caught the panic still serves the next tenant.
    let id = service.submit(add_spec("alice")).unwrap();
    let outcome = service.wait(id).unwrap();
    assert_eq!(outcome.result.unwrap().outputs[0].values[0], 42);
    let health = service.health();
    assert_eq!(health.workers_alive, 1);
    assert_eq!(health.worker_deaths, 0);
    service.shutdown();
}

#[test]
fn high_priority_preempts_and_the_victim_resumes_exactly() {
    let service = Service::start(roomy_config(1));
    let ensembles = 300;
    let iters = 300;
    let mut low = slow_spec("batch", ensembles, iters);
    low.priority = Priority::Low;
    let low_id = service.submit(low).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.status(low_id) != Some(JobPhase::Running) {
        assert!(Instant::now() < deadline, "low job never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut high = add_spec("interactive");
    high.priority = Priority::High;
    let high_id = service.submit(high).unwrap();
    let high_out = service.wait(high_id).unwrap();
    assert_eq!(high_out.result.unwrap().outputs[0].values[0], 42);

    let low_out = service.wait(low_id).unwrap();
    assert!(low_out.preemptions >= 1, "low job was never preempted");
    // Byte-identical resume: the accumulator is exact despite the
    // checkpoint round-trip.
    let result = low_out.result.expect("victim completes after resume");
    assert_eq!(result.outputs[0].values[0], ensembles as u64 * iters);
    assert!(service.health().preemptions >= 1);
    service.shutdown();
}

#[test]
fn chaos_kill_is_survived_and_the_worker_respawns() {
    let service = Service::start(roomy_config(1));
    let id = service.submit(slow_spec("alice", 50, 100)).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    service.chaos_kill_worker();
    // Whether the kill lands idle, at claim, or after the claim (orphaning
    // the job for the watchdog), the job must still reach its outcome and
    // the pool must heal.
    let outcome = service.wait(id).unwrap();
    let result = outcome.result.expect("job completes despite the kill");
    assert_eq!(result.outputs[0].values[0], 50 * 100);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = service.health();
        if health.worker_deaths == 1 && health.workers_alive == 1 {
            assert_eq!(health.workers_spawned, 2);
            break;
        }
        assert!(Instant::now() < deadline, "worker never respawned: {health:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    service.shutdown();
}

#[test]
fn socket_end_to_end() {
    let path = std::env::temp_dir().join(format!("mpud-test-{}.sock", std::process::id()));
    let service = Arc::new(Service::start(ServiceConfig { workers: 1, ..Default::default() }));
    let handle = server::serve_unix(&path, Arc::clone(&service)).unwrap();

    let mut client = server::ServiceClient::connect(&path).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.workers_alive, 1);

    let id = client.submit(&add_spec("remote")).unwrap();
    let outcome = client.wait(id).unwrap();
    assert_eq!(outcome.result.unwrap().outputs[0].values[0], 42);
    assert_eq!(client.status(id).unwrap(), JobPhase::Done);

    // Typed admission rejection crosses the wire.
    let err = client
        .submit(&JobSpec::ez("remote", DatapathKind::Racer, "ensemble h0.v0 {\n  frobnicate\n}"))
        .unwrap_err();
    assert_eq!(err.kind, "parse_error");

    // A ~2 MB `[[[…]]]` frame gets a typed parse error, and the
    // connection keeps serving.
    let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let deep = "[".repeat(2 << 20);
    std::io::Write::write_all(&mut raw, &(deep.len() as u32).to_le_bytes()).unwrap();
    std::io::Write::write_all(&mut raw, deep.as_bytes()).unwrap();
    let response = service::proto::read_frame(&mut raw).unwrap().unwrap();
    let kind = response.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str());
    assert_eq!(kind, Some("parse_error"), "{response}");
    let health = service::proto::request_to_json(&service::proto::Request::Health);
    service::proto::write_frame(&mut raw, &health).unwrap();
    let response = service::proto::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true), "{response}");

    // A second connection sees the same service.
    let mut other = server::ServiceClient::connect(&path).unwrap();
    assert!(other.wait(id).unwrap().result.is_ok());

    client.shutdown().unwrap();
    handle.join();
    let err = service.submit(add_spec("late")).unwrap_err();
    assert!(matches!(err, AdmitError::ShuttingDown));
}
