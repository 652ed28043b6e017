//! A blocking client for the verification daemon.
//!
//! [`Client::connect`] performs the handshake; [`Client::verify`] is the
//! high-level one-job call that submits, consumes progress frames and
//! returns the final [`JobOutcome`];
//! [`Client::verify_with_retry`] additionally honours backpressure
//! rejections and transient I/O failures under a bounded-backoff
//! [`RetryPolicy`].  The lower-level
//! [`send`](Client::send)/[`recv`](Client::recv)/[`send_raw`](Client::send_raw)
//! methods exist for the protocol and fault-injection test suites, which
//! need to speak the protocol wrongly on purpose.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use autoq_core::Resource;

use crate::proto::{DaemonStats, JobRequest, Request, Response, Verdict, MAGIC, PROTOCOL_VERSION};
use crate::wire::{read_frame, write_frame, WireError};

/// The final fate of a submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// A verdict arrived.
    Verdict {
        /// The verdict.
        verdict: Verdict,
        /// Whether the daemon served it from the cache.
        cached: bool,
    },
    /// The daemon rejected the submission for backpressure.
    Rejected {
        /// Suggested retry delay in milliseconds.
        retry_after_ms: u32,
    },
    /// The job failed (parse error, bad spec, cancellation).
    Failed {
        /// Daemon-provided description.
        message: String,
    },
    /// The job ran out of a resource budget (deadline or peak-state cap),
    /// its own or one the server's ceilings imposed — the typed
    /// graceful-degradation outcome.
    Exhausted {
        /// Which budget tripped.
        resource: Resource,
        /// The configured limit (milliseconds or states).
        limit: u64,
        /// The observed value when the budget tripped.
        observed: u64,
    },
}

/// Bounded exponential backoff for [`Client::verify_with_retry`].
///
/// Attempt *n* (0-based) sleeps `base_delay * 2^n`, capped at
/// `max_delay` — unless the daemon's [`Response::Rejected`] carried a
/// `retry_after_ms` hint, which takes precedence (still capped).  A small
/// deterministic jitter derived from the system clock's sub-second nanos
/// is added so a fleet of rejected clients does not resubmit in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (the first submission counts as one).
    pub max_attempts: u32,
    /// First retry delay.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based), honouring the
    /// daemon's hint when given.
    fn delay(&self, attempt: u32, hint_ms: Option<u32>) -> Duration {
        let backoff = match hint_ms {
            Some(ms) => Duration::from_millis(u64::from(ms)),
            None => self.base_delay.saturating_mul(1u32 << attempt.min(16)),
        };
        let capped = backoff.min(self.max_delay);
        // Deterministic-enough jitter without a rand dependency: the
        // sub-second nanos of the wall clock, scaled to at most a quarter
        // of the delay.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let jitter_budget = capped / 4;
        let jitter = jitter_budget
            .checked_mul(u32::from(nanos as u16))
            .map(|d| d / u32::from(u16::MAX))
            .unwrap_or(Duration::ZERO);
        capped + jitter
    }
}

/// A connected, handshaken daemon client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: Option<SocketAddr>,
    next_job: u64,
}

impl Client {
    /// Connects and handshakes at [`PROTOCOL_VERSION`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        Self::connect_with_hello(addr, MAGIC, PROTOCOL_VERSION)
    }

    /// Connects and handshakes with arbitrary magic/version — the
    /// version-mismatch tests' entry point.  The handshake response (ack
    /// or error) is returned alongside the client.
    pub fn connect_with_hello(
        addr: impl ToSocketAddrs,
        magic: u32,
        version: u32,
    ) -> Result<Client, WireError> {
        let mut client = Self::connect_raw(addr)?;
        client.send(&Request::Hello { magic, version })?;
        match client.recv()? {
            Response::HelloAck { .. } => Ok(client),
            Response::Error { code, message } => Err(WireError::malformed(
                0,
                format!("handshake refused ({code:?}): {message}"),
            )),
            other => Err(WireError::malformed(
                0,
                format!("unexpected handshake response {other:?}"),
            )),
        }
    }

    /// Connects without handshaking — for tests that need to misbehave
    /// from the first byte.
    pub fn connect_raw(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            peer,
            next_job: 0,
        })
    }

    /// Sets a read timeout so tests can assert "no response" without
    /// hanging.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request frame.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        write_frame(&mut self.writer, &request.encode())
    }

    /// Writes raw bytes straight to the socket (no framing) — for
    /// injecting garbage and truncated frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.writer.write_all(bytes)?;
        Ok(())
    }

    /// Receives one response frame.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        Response::decode(&read_frame(&mut self.reader)?)
    }

    /// Submits a job under a fresh id, returning the id.
    pub fn submit(&mut self, job: JobRequest) -> Result<u64, WireError> {
        self.next_job += 1;
        let client_job = self.next_job;
        self.send(&Request::Submit { client_job, job })?;
        Ok(client_job)
    }

    /// Submits a job and blocks until its outcome, skipping progress
    /// frames (the last observed progress is returned alongside).
    pub fn verify(&mut self, job: JobRequest) -> Result<JobOutcome, WireError> {
        let client_job = self.submit(job)?;
        loop {
            match self.recv()? {
                Response::Accepted { client_job: id } if id == client_job => {}
                Response::Progress { client_job: id, .. } if id == client_job => {}
                Response::Rejected {
                    client_job: id,
                    retry_after_ms,
                } if id == client_job => return Ok(JobOutcome::Rejected { retry_after_ms }),
                Response::Verdict {
                    client_job: id,
                    cached,
                    verdict,
                } if id == client_job => return Ok(JobOutcome::Verdict { verdict, cached }),
                Response::JobError {
                    client_job: id,
                    message,
                } if id == client_job => return Ok(JobOutcome::Failed { message }),
                Response::Exhausted {
                    client_job: id,
                    resource,
                    limit,
                    observed,
                } if id == client_job => {
                    return Ok(JobOutcome::Exhausted {
                        resource,
                        limit,
                        observed,
                    })
                }
                Response::Error { code, message } => {
                    return Err(WireError::malformed(
                        0,
                        format!("protocol error ({code:?}): {message}"),
                    ))
                }
                other => {
                    return Err(WireError::malformed(
                        0,
                        format!("unexpected response {other:?}"),
                    ))
                }
            }
        }
    }

    /// Like [`verify`](Self::verify), but rides out transient failure:
    /// backpressure [`JobOutcome::Rejected`] answers are retried after the
    /// daemon's `retry_after_ms` hint (capped by the policy), and
    /// transient I/O errors (connection reset, truncated stream) trigger a
    /// reconnect-and-resubmit.  Gives up after
    /// [`RetryPolicy::max_attempts`], returning the last rejection or
    /// error.  Protocol-level errors (malformed frames, handshake refusal)
    /// are never retried — they mean a bug, not load.
    pub fn verify_with_retry(
        &mut self,
        job: JobRequest,
        policy: &RetryPolicy,
    ) -> Result<JobOutcome, WireError> {
        let attempts = policy.max_attempts.max(1);
        let mut last_rejection = None;
        for attempt in 0..attempts {
            let retriable = match self.verify(job.clone()) {
                Ok(JobOutcome::Rejected { retry_after_ms }) => {
                    last_rejection = Some(JobOutcome::Rejected { retry_after_ms });
                    Some(Some(retry_after_ms))
                }
                Ok(outcome) => return Ok(outcome),
                Err(transient @ (WireError::Io(_) | WireError::Closed | WireError::Truncated)) => {
                    // The stream is dead; a fresh connection may succeed.
                    let Some(peer) = self.peer else {
                        return Err(transient);
                    };
                    if attempt + 1 >= attempts {
                        return Err(transient);
                    }
                    std::thread::sleep(policy.delay(attempt, None));
                    // On reconnect failure the next verify fails fast, consuming an attempt.
                    if let Ok(fresh) = Client::connect(peer) {
                        *self = fresh;
                    }
                    None
                }
                Err(e) => return Err(e),
            };
            if let Some(hint) = retriable {
                if attempt + 1 < attempts {
                    std::thread::sleep(policy.delay(attempt, hint));
                }
            }
        }
        match last_rejection {
            Some(rejection) => Ok(rejection),
            None => Err(WireError::malformed(0, "retries exhausted")),
        }
    }

    /// Requests daemon statistics.
    pub fn stats(&mut self) -> Result<DaemonStats, WireError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::StatsReport(stats) => Ok(stats),
            other => Err(WireError::malformed(
                0,
                format!("unexpected stats response {other:?}"),
            )),
        }
    }

    /// Round-trips a ping.
    pub fn ping(&mut self) -> Result<(), WireError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(WireError::malformed(
                0,
                format!("unexpected ping response {other:?}"),
            )),
        }
    }

    /// Asks the daemon to persist its cache and exit.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShuttingDown => Ok(()),
            other => Err(WireError::malformed(
                0,
                format!("unexpected shutdown response {other:?}"),
            )),
        }
    }

    /// Cancels a previously submitted job.
    pub fn cancel(&mut self, client_job: u64) -> Result<(), WireError> {
        self.send(&Request::Cancel { client_job })
    }
}
