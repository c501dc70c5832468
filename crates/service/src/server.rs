//! Unix-socket daemon front end and a blocking client.
//!
//! Thread-per-connection server speaking the [`crate::proto`] framed
//! protocol. Protocol violations (bad frames, unknown ops, malformed
//! specs) are answered with typed `invalid_request` errors where a
//! response is still possible, and otherwise drop only the offending
//! connection — never the daemon. A `shutdown` request gracefully stops
//! the service (running jobs finish, queued jobs are cancelled) and
//! then the accept loop.

use crate::job::{JobId, JobOutcome, JobPhase};
use crate::proto::{
    self, err_response, health_from_json, health_to_json, hex, ok_response, outcome_from_json,
    outcome_to_json, read_frame, read_frame_text, request_from_json, request_to_json, write_frame,
    Request,
};
use crate::{HealthReport, JobSpec, Service};
use microjson::Value;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A typed error relayed over the wire (`kind` is the originating
/// [`crate::AdmitError::kind`]/[`crate::JobError::kind`] tag, or
/// `invalid_request`/`io` for transport-level failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// snake_case error tag.
    pub kind: String,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    fn io(e: &io::Error) -> Self {
        WireError { kind: "io".into(), message: e.to_string() }
    }

    fn protocol(message: impl Into<String>) -> Self {
        WireError { kind: "invalid_request".into(), message: message.into() }
    }
}

/// Handle to a running socket server.
pub struct ServerHandle {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket path being served.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Blocks until the accept loop exits (a `shutdown` request or
    /// [`ServerHandle::stop`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }

    /// Stops the accept loop without shutting the service down.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call.
        let _ = UnixStream::connect(&self.path);
        self.join();
    }
}

/// Serves `service` on a Unix socket at `path` (any stale socket file is
/// replaced). Connections are handled on their own threads.
///
/// # Errors
///
/// Fails if the socket cannot be bound.
pub fn serve_unix(path: &Path, service: Arc<Service>) -> io::Result<ServerHandle> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_path = path.to_path_buf();
    let accept = std::thread::Builder::new().name("service-accept".into()).spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&service);
            let stop = Arc::clone(&accept_stop);
            let path = accept_path.clone();
            // Connection threads are detached: they exit on client
            // EOF, and service shutdown unblocks any in-flight wait.
            let _ = std::thread::Builder::new().name("service-conn".into()).spawn(move || {
                let _ = handle_connection(stream, &service, &stop, &path);
            });
        }
    })?;
    Ok(ServerHandle { path: path.to_path_buf(), stop, accept: Some(accept) })
}

fn unknown_job(id: JobId) -> Value {
    err_response(proto::admit_error_to_json(&crate::AdmitError::InvalidRequest {
        message: format!("unknown job {id}"),
    }))
}

fn handle_connection(
    stream: UnixStream,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    path: &Path,
) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    while let Some(text) = read_frame_text(&mut reader)? {
        let request = Value::parse(&text)
            .map_err(|e| crate::AdmitError::ParseError { message: e.to_string() })
            .and_then(|frame| {
                request_from_json(&frame)
                    .map_err(|message| crate::AdmitError::InvalidRequest { message })
            });
        let response = match request {
            Err(e) => err_response(proto::admit_error_to_json(&e)),
            Ok(Request::Submit(spec)) => match service.submit(*spec) {
                Ok(id) => ok_response(vec![("id", hex(id))]),
                Err(e) => err_response(proto::admit_error_to_json(&e)),
            },
            Ok(Request::Status(id)) => match service.status(id) {
                Some(phase) => ok_response(vec![("phase", Value::Str(phase.as_str().into()))]),
                None => unknown_job(id),
            },
            Ok(Request::Wait(id)) => match service.wait(id) {
                Some(outcome) => ok_response(vec![("outcome", outcome_to_json(&outcome))]),
                None => unknown_job(id),
            },
            Ok(Request::Cancel(id)) => {
                ok_response(vec![("cancelled", Value::Bool(service.cancel(id)))])
            }
            Ok(Request::Health) => ok_response(vec![("health", health_to_json(&service.health()))]),
            Ok(Request::Shutdown) => {
                write_frame(&mut writer, &ok_response(vec![]))?;
                service.shutdown();
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept call so the server can exit.
                let _ = UnixStream::connect(path);
                return Ok(());
            }
        };
        write_frame(&mut writer, &response)?;
    }
    Ok(())
}

/// Blocking client for the framed Unix-socket protocol.
pub struct ServiceClient {
    stream: UnixStream,
}

impl ServiceClient {
    /// Connects to a daemon at `path`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(path: &Path) -> io::Result<Self> {
        Ok(ServiceClient { stream: UnixStream::connect(path)? })
    }

    fn call(&mut self, req: &Request) -> Result<Value, WireError> {
        write_frame(&mut self.stream, &request_to_json(req)).map_err(|e| WireError::io(&e))?;
        let response = read_frame(&mut self.stream)
            .map_err(|e| WireError::io(&e))?
            .ok_or_else(|| WireError::protocol("connection closed mid-request"))?;
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(response)
        } else {
            let err = response
                .get("error")
                .ok_or_else(|| WireError::protocol("failure response carried no `error`"))?;
            Err(WireError {
                kind: err
                    .get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("invalid_request")
                    .to_string(),
                message: err.get("message").and_then(Value::as_str).unwrap_or("").to_string(),
            })
        }
    }

    /// Submits a job; returns its id or the typed rejection tag.
    ///
    /// # Errors
    ///
    /// Typed admission rejections and transport failures.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobId, WireError> {
        let v = self.call(&Request::Submit(Box::new(spec.clone())))?;
        v.get("id")
            .and_then(proto::parse_u64)
            .ok_or_else(|| WireError::protocol("submit response carried no `id`"))
    }

    /// Blocks until the job is terminal and returns its outcome.
    ///
    /// # Errors
    ///
    /// Unknown-job rejections and transport failures.
    pub fn wait(&mut self, id: JobId) -> Result<JobOutcome, WireError> {
        let v = self.call(&Request::Wait(id))?;
        let outcome =
            v.get("outcome").ok_or_else(|| WireError::protocol("wait response missing outcome"))?;
        outcome_from_json(outcome).map_err(WireError::protocol)
    }

    /// Reports a job's lifecycle phase.
    ///
    /// # Errors
    ///
    /// Unknown-job rejections and transport failures.
    pub fn status(&mut self, id: JobId) -> Result<JobPhase, WireError> {
        let v = self.call(&Request::Status(id))?;
        match v.get("phase").and_then(Value::as_str) {
            Some("queued") => Ok(JobPhase::Queued),
            Some("running") => Ok(JobPhase::Running),
            Some("backoff") => Ok(JobPhase::Backoff),
            Some("done") => Ok(JobPhase::Done),
            _ => Err(WireError::protocol("status response carried no phase")),
        }
    }

    /// Cancels a live job; `true` if it was live.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn cancel(&mut self, id: JobId) -> Result<bool, WireError> {
        let v = self.call(&Request::Cancel(id))?;
        v.get("cancelled")
            .and_then(Value::as_bool)
            .ok_or_else(|| WireError::protocol("cancel response carried no flag"))
    }

    /// Fetches the service health report.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn health(&mut self) -> Result<HealthReport, WireError> {
        let v = self.call(&Request::Health)?;
        let h =
            v.get("health").ok_or_else(|| WireError::protocol("health response missing body"))?;
        health_from_json(h).map_err(WireError::protocol)
    }

    /// Gracefully shuts the daemon down.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.call(&Request::Shutdown).map(|_| ())
    }
}
