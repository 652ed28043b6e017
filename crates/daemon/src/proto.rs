//! The versioned daemon protocol: request/response frames and their binary
//! encodings.
//!
//! A session starts with a handshake — the client's first frame must be
//! [`Request::Hello`] carrying [`MAGIC`] and [`PROTOCOL_VERSION`]; the
//! server answers [`Response::HelloAck`] or a fatal [`Response::Error`]
//! (bad magic / version mismatch) and closes.  After the handshake the
//! client pipelines requests freely; every job-related response carries the
//! client-chosen `client_job` id, so responses may interleave across jobs.
//!
//! Encodings are defined by `encode`/`decode` on [`Request`] and
//! [`Response`]; both are total — `decode` returns a
//! [`WireError`] on malformed payloads, never
//! panics — and round-trip exactly (`decode(encode(x)) == x`), which the
//! protocol test suite checks frame type by frame type.

use autoq_core::Resource;

use crate::wire::{Decoder, Encoder, WireError};

/// Protocol magic, sent in [`Request::Hello`] ("AQVD": AutoQ Verification
/// Daemon).
pub const MAGIC: u32 = u32::from_le_bytes(*b"AQVD");

/// Current protocol version.  Bumped on any wire-incompatible change; the
/// server rejects other versions in the handshake with
/// [`ErrorCode::VersionMismatch`].
pub const PROTOCOL_VERSION: u32 = 2;

/// A set of quantum states, as a specification operand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Spec {
    /// The singleton set `{|basis⟩}`.
    Basis {
        /// Width of the state.
        num_qubits: u32,
        /// The basis index.
        basis: u128,
    },
    /// All `2^n` basis states.
    AllBasis {
        /// Width of the states.
        num_qubits: u32,
    },
    /// Basis states matching `fixed` on every qubit not listed in `free`.
    Pattern {
        /// Width of the states.
        num_qubits: u32,
        /// Fixed bits (must be disjoint from the freed positions).
        fixed: u128,
        /// Qubit positions free to take both values.
        free: Vec<u32>,
    },
    /// An explicit tree automaton in the binary codec of
    /// [`autoq_treeaut::format::to_binary`].
    Automaton {
        /// Width of the states.
        num_qubits: u32,
        /// `format::to_binary` bytes.
        bytes: Vec<u8>,
    },
}

impl Spec {
    /// Declared width of the specification.
    pub fn num_qubits(&self) -> u32 {
        match self {
            Spec::Basis { num_qubits, .. }
            | Spec::AllBasis { num_qubits }
            | Spec::Pattern { num_qubits, .. }
            | Spec::Automaton { num_qubits, .. } => *num_qubits,
        }
    }

    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            Spec::Basis { num_qubits, basis } => {
                enc.put_u8(0);
                enc.put_u32(*num_qubits);
                enc.put_u128(*basis);
            }
            Spec::AllBasis { num_qubits } => {
                enc.put_u8(1);
                enc.put_u32(*num_qubits);
            }
            Spec::Pattern {
                num_qubits,
                fixed,
                free,
            } => {
                enc.put_u8(2);
                enc.put_u32(*num_qubits);
                enc.put_u128(*fixed);
                enc.put_varint(free.len() as u64);
                for &position in free {
                    enc.put_varint(u64::from(position));
                }
            }
            Spec::Automaton { num_qubits, bytes } => {
                enc.put_u8(3);
                enc.put_u32(*num_qubits);
                enc.put_bytes(bytes);
            }
        }
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Spec, WireError> {
        match dec.get_u8()? {
            0 => Ok(Spec::Basis {
                num_qubits: dec.get_u32()?,
                basis: dec.get_u128()?,
            }),
            1 => Ok(Spec::AllBasis {
                num_qubits: dec.get_u32()?,
            }),
            2 => {
                let num_qubits = dec.get_u32()?;
                let fixed = dec.get_u128()?;
                let count = dec.get_varint()?;
                if count > 4 * dec.remaining() as u64 {
                    return Err(WireError::malformed(0, "pattern free-list count too large"));
                }
                let mut free = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let position = dec.get_varint()?;
                    free.push(u32::try_from(position).map_err(|_| {
                        WireError::malformed(0, "pattern free position exceeds u32")
                    })?);
                }
                Ok(Spec::Pattern {
                    num_qubits,
                    fixed,
                    free,
                })
            }
            3 => Ok(Spec::Automaton {
                num_qubits: dec.get_u32()?,
                bytes: dec.get_bytes()?,
            }),
            other => Err(WireError::malformed(
                0,
                format!("unknown spec kind {other}"),
            )),
        }
    }

    /// The canonical bytes hashed into the spec digest (exactly the wire
    /// encoding).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::default();
        self.encode_into(&mut enc);
        enc.finish()
    }
}

/// How the circuit's output set must relate to the post-condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecMode {
    /// Output set must equal the post-condition.
    Equality,
    /// Output set must be included in the post-condition.
    Inclusion,
}

/// Optional per-job resource limits, carried by every Submit frame.
///
/// The server clamps every field to its configured ceilings
/// ([`DaemonConfig`](crate::server::DaemonConfig)), so a client can only
/// tighten the budget, never widen it.  Limits deliberately do **not**
/// enter the spec digest: the verdict of `{P} C {Q}` is independent of how
/// long the run was allowed to take, so a job with a deadline shares its
/// cache entry with the same job without one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobLimits {
    /// Wall-clock deadline for the engine run, in milliseconds.
    pub deadline_ms: Option<u32>,
    /// Cap on the peak automaton state count.
    pub max_states: Option<u64>,
}

impl JobLimits {
    fn encode_into(&self, enc: &mut Encoder) {
        let mut flags = 0u8;
        if self.deadline_ms.is_some() {
            flags |= 1;
        }
        if self.max_states.is_some() {
            flags |= 2;
        }
        enc.put_u8(flags);
        if let Some(deadline_ms) = self.deadline_ms {
            enc.put_u32(deadline_ms);
        }
        if let Some(max_states) = self.max_states {
            enc.put_varint(max_states);
        }
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<JobLimits, WireError> {
        let flags = dec.get_u8()?;
        if flags & !0x03 != 0 {
            return Err(WireError::malformed(
                0,
                format!("unknown job-limit flags {flags:#04x}"),
            ));
        }
        Ok(JobLimits {
            deadline_ms: (flags & 1 != 0).then(|| dec.get_u32()).transpose()?,
            max_states: (flags & 2 != 0).then(|| dec.get_varint()).transpose()?,
        })
    }
}

/// One verification job: `{pre} circuit {post}` with the circuit as
/// OpenQASM source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// OpenQASM 2.0 source of the circuit.
    pub qasm: String,
    /// Pre-condition `P`.
    pub pre: Spec,
    /// Post-condition `Q`.
    pub post: Spec,
    /// Equality or inclusion.
    pub mode: SpecMode,
    /// Whether a violation verdict should carry the witness DAG.
    pub want_witness: bool,
    /// Per-job resource limits (default: unlimited, clamped by the server's
    /// ceilings).
    pub limits: JobLimits,
    /// Whether a positive verdict should carry an AQIC inclusion-certificate
    /// bundle, checked by the independent `autoq-certify` crate before the
    /// verdict is reported.
    pub want_certificate: bool,
}

/// The verdict of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// `true` iff `{pre} circuit {post}` holds.
    pub holds: bool,
    /// For violations: `true` if the witness is reachable but forbidden,
    /// `false` if it is required but unreachable.
    pub reachable_but_forbidden: bool,
    /// Witness state as a binary tree DAG
    /// ([`autoq_treeaut::format::tree_to_binary`]), when the verdict is a
    /// violation and the job asked for one.
    pub witness: Option<Vec<u8>>,
    /// AQIC inclusion-certificate bundle
    /// ([`autoq_treeaut::format::certificates_to_binary`]), when the verdict
    /// is positive and the job asked for one.  Always checker-verified by
    /// the server before it is sent.
    pub certificate: Option<Vec<u8>>,
}

/// Aggregate daemon statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs that ran to a verdict on the engine.
    pub jobs_completed: u64,
    /// Submissions answered from the verdict cache.
    pub cache_hits: u64,
    /// Submissions that missed the cache and were queued.
    pub cache_misses: u64,
    /// Submissions rejected for backpressure.
    pub rejected: u64,
    /// Jobs currently queued.
    pub queue_depth: u32,
    /// Worker threads.
    pub workers: u32,
    /// Entries in the verdict cache.
    pub cache_entries: u64,
    /// Jobs stopped by a budget or deadline (answered
    /// [`Response::Exhausted`]).
    pub jobs_exhausted: u64,
    /// Jobs whose engine run panicked (answered [`Response::JobError`];
    /// the worker survives).
    pub jobs_panicked: u64,
    /// Positive verdicts that shipped a checker-verified certificate.
    pub verdicts_certified: u64,
    /// Certificates rejected by the independent checker (each one is a
    /// soundness bug surfaced as [`Response::JobError`]).
    pub certificates_rejected: u64,
}

/// Fatal protocol error classes (the connection closes after one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake magic did not match.
    BadMagic,
    /// Handshake protocol version unsupported.
    VersionMismatch,
    /// A frame failed to decode.
    MalformedFrame,
    /// A frame carried an unknown opcode.
    UnknownOpcode,
    /// The daemon hit an internal error.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::VersionMismatch => 2,
            ErrorCode::MalformedFrame => 3,
            ErrorCode::UnknownOpcode => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u8(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::VersionMismatch,
            3 => ErrorCode::MalformedFrame,
            4 => ErrorCode::UnknownOpcode,
            5 => ErrorCode::Internal,
            other => {
                return Err(WireError::malformed(
                    0,
                    format!("unknown error code {other}"),
                ))
            }
        })
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Handshake opener; must be the first frame on a connection.
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Client protocol version.
        version: u32,
    },
    /// Submit a verification job under a client-chosen id.
    Submit {
        /// Client-chosen id echoed in every response about this job.
        client_job: u64,
        /// The job.
        job: JobRequest,
    },
    /// Cancel a previously submitted job.
    Cancel {
        /// The id used at submission.
        client_job: u64,
    },
    /// Request a [`Response::StatsReport`].
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to persist its cache and exit.
    Shutdown,
}

const OP_HELLO: u8 = 0x01;
const OP_SUBMIT: u8 = 0x02;
const OP_CANCEL: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_PING: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello { magic, version } => {
                let mut enc = Encoder::with_opcode(OP_HELLO);
                enc.put_u32(*magic);
                enc.put_u32(*version);
                enc.finish()
            }
            Request::Submit { client_job, job } => {
                let mut enc = Encoder::with_opcode(OP_SUBMIT);
                enc.put_varint(*client_job);
                enc.put_str(&job.qasm);
                job.pre.encode_into(&mut enc);
                job.post.encode_into(&mut enc);
                enc.put_u8(match job.mode {
                    SpecMode::Equality => 0,
                    SpecMode::Inclusion => 1,
                });
                enc.put_u8(u8::from(job.want_witness));
                job.limits.encode_into(&mut enc);
                enc.put_u8(u8::from(job.want_certificate));
                enc.finish()
            }
            Request::Cancel { client_job } => {
                let mut enc = Encoder::with_opcode(OP_CANCEL);
                enc.put_varint(*client_job);
                enc.finish()
            }
            Request::Stats => Encoder::with_opcode(OP_STATS).finish(),
            Request::Ping => Encoder::with_opcode(OP_PING).finish(),
            Request::Shutdown => Encoder::with_opcode(OP_SHUTDOWN).finish(),
        }
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on empty payloads, unknown opcodes,
    /// truncated fields or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut dec = Decoder::new(payload);
        let request = match dec.get_u8()? {
            OP_HELLO => Request::Hello {
                magic: dec.get_u32()?,
                version: dec.get_u32()?,
            },
            OP_SUBMIT => {
                let client_job = dec.get_varint()?;
                let qasm = dec.get_str()?;
                let pre = Spec::decode_from(&mut dec)?;
                let post = Spec::decode_from(&mut dec)?;
                let mode = match dec.get_u8()? {
                    0 => SpecMode::Equality,
                    1 => SpecMode::Inclusion,
                    other => return Err(WireError::malformed(0, format!("unknown mode {other}"))),
                };
                let want_witness = match dec.get_u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::malformed(
                            0,
                            format!("want_witness must be 0/1, got {other}"),
                        ))
                    }
                };
                let limits = JobLimits::decode_from(&mut dec)?;
                let want_certificate = match dec.get_u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::malformed(
                            0,
                            format!("unknown certificate flags {other:#04x}"),
                        ))
                    }
                };
                Request::Submit {
                    client_job,
                    job: JobRequest {
                        qasm,
                        pre,
                        post,
                        mode,
                        want_witness,
                        limits,
                        want_certificate,
                    },
                }
            }
            OP_CANCEL => Request::Cancel {
                client_job: dec.get_varint()?,
            },
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(WireError::malformed(
                    0,
                    format!("unknown request opcode {other:#04x}"),
                ))
            }
        };
        dec.expect_end()?;
        Ok(request)
    }
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Successful handshake.
    HelloAck {
        /// The server's protocol version (equals the client's after a
        /// successful handshake).
        version: u32,
    },
    /// The job missed the cache and was queued.
    Accepted {
        /// Echo of the submission id.
        client_job: u64,
    },
    /// The job was refused for backpressure; retry after the given delay.
    Rejected {
        /// Echo of the submission id.
        client_job: u64,
        /// Suggested retry delay in milliseconds.
        retry_after_ms: u32,
    },
    /// Progress of a running job (`applied` of `total` gates).
    Progress {
        /// Echo of the submission id.
        client_job: u64,
        /// Gates applied so far.
        applied: u32,
        /// Total gates in the circuit.
        total: u32,
    },
    /// The job's verdict.
    Verdict {
        /// Echo of the submission id.
        client_job: u64,
        /// Whether this verdict was served from the cache.
        cached: bool,
        /// The verdict.
        verdict: Verdict,
    },
    /// The job failed before reaching the engine (parse error, width
    /// mismatch, malformed spec automaton, …).  Job-scoped: the connection
    /// stays usable.
    JobError {
        /// Echo of the submission id.
        client_job: u64,
        /// Human-readable description.
        message: String,
    },
    /// The job stopped on a resource budget or deadline, its own or a
    /// server ceiling — a typed degradation outcome.  Job-scoped: the
    /// connection stays usable.
    Exhausted {
        /// Echo of the submission id.
        client_job: u64,
        /// Which budget tripped.
        resource: Resource,
        /// The effective (clamped) limit: milliseconds for the wall clock,
        /// counts for the size budgets.
        limit: u64,
        /// The observed value that exceeded it.
        observed: u64,
    },
    /// Answer to [`Request::Stats`].
    StatsReport(DaemonStats),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledges [`Request::Shutdown`]; the daemon persists its cache
    /// and exits.
    ShuttingDown,
    /// Fatal protocol error; the server closes the connection after
    /// sending it.
    Error {
        /// Error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

const OP_HELLO_ACK: u8 = 0x81;
const OP_ACCEPTED: u8 = 0x82;
const OP_REJECTED: u8 = 0x83;
const OP_PROGRESS: u8 = 0x84;
const OP_VERDICT: u8 = 0x85;
const OP_JOB_ERROR: u8 = 0x86;
const OP_STATS_REPORT: u8 = 0x87;
const OP_PONG: u8 = 0x88;
const OP_SHUTTING_DOWN: u8 = 0x89;
const OP_ERROR: u8 = 0x8A;
const OP_EXHAUSTED: u8 = 0x8B;

fn resource_to_u8(resource: Resource) -> u8 {
    match resource {
        Resource::WallClock => 0,
        Resource::States => 1,
        Resource::Transitions => 2,
    }
}

fn resource_from_u8(value: u8) -> Result<Resource, WireError> {
    Ok(match value {
        0 => Resource::WallClock,
        1 => Resource::States,
        2 => Resource::Transitions,
        other => {
            return Err(WireError::malformed(
                0,
                format!("unknown resource kind {other}"),
            ))
        }
    })
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::HelloAck { version } => {
                let mut enc = Encoder::with_opcode(OP_HELLO_ACK);
                enc.put_u32(*version);
                enc.finish()
            }
            Response::Accepted { client_job } => {
                let mut enc = Encoder::with_opcode(OP_ACCEPTED);
                enc.put_varint(*client_job);
                enc.finish()
            }
            Response::Rejected {
                client_job,
                retry_after_ms,
            } => {
                let mut enc = Encoder::with_opcode(OP_REJECTED);
                enc.put_varint(*client_job);
                enc.put_u32(*retry_after_ms);
                enc.finish()
            }
            Response::Progress {
                client_job,
                applied,
                total,
            } => {
                let mut enc = Encoder::with_opcode(OP_PROGRESS);
                enc.put_varint(*client_job);
                enc.put_u32(*applied);
                enc.put_u32(*total);
                enc.finish()
            }
            Response::Verdict {
                client_job,
                cached,
                verdict,
            } => {
                let mut enc = Encoder::with_opcode(OP_VERDICT);
                enc.put_varint(*client_job);
                let mut flags = 0u8;
                if *cached {
                    flags |= 1;
                }
                if verdict.holds {
                    flags |= 2;
                }
                if verdict.reachable_but_forbidden {
                    flags |= 4;
                }
                if verdict.witness.is_some() {
                    flags |= 8;
                }
                if verdict.certificate.is_some() {
                    flags |= 16;
                }
                enc.put_u8(flags);
                if let Some(witness) = &verdict.witness {
                    enc.put_bytes(witness);
                }
                if let Some(certificate) = &verdict.certificate {
                    enc.put_bytes(certificate);
                }
                enc.finish()
            }
            Response::JobError {
                client_job,
                message,
            } => {
                let mut enc = Encoder::with_opcode(OP_JOB_ERROR);
                enc.put_varint(*client_job);
                enc.put_str(message);
                enc.finish()
            }
            Response::Exhausted {
                client_job,
                resource,
                limit,
                observed,
            } => {
                let mut enc = Encoder::with_opcode(OP_EXHAUSTED);
                enc.put_varint(*client_job);
                enc.put_u8(resource_to_u8(*resource));
                enc.put_varint(*limit);
                enc.put_varint(*observed);
                enc.finish()
            }
            Response::StatsReport(stats) => {
                let mut enc = Encoder::with_opcode(OP_STATS_REPORT);
                enc.put_varint(stats.jobs_completed);
                enc.put_varint(stats.cache_hits);
                enc.put_varint(stats.cache_misses);
                enc.put_varint(stats.rejected);
                enc.put_u32(stats.queue_depth);
                enc.put_u32(stats.workers);
                enc.put_varint(stats.cache_entries);
                enc.put_varint(stats.jobs_exhausted);
                enc.put_varint(stats.jobs_panicked);
                enc.put_varint(stats.verdicts_certified);
                enc.put_varint(stats.certificates_rejected);
                enc.finish()
            }
            Response::Pong => Encoder::with_opcode(OP_PONG).finish(),
            Response::ShuttingDown => Encoder::with_opcode(OP_SHUTTING_DOWN).finish(),
            Response::Error { code, message } => {
                let mut enc = Encoder::with_opcode(OP_ERROR);
                enc.put_u8(code.to_u8());
                enc.put_str(message);
                enc.finish()
            }
        }
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on empty payloads, unknown opcodes,
    /// truncated fields or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut dec = Decoder::new(payload);
        let response = match dec.get_u8()? {
            OP_HELLO_ACK => Response::HelloAck {
                version: dec.get_u32()?,
            },
            OP_ACCEPTED => Response::Accepted {
                client_job: dec.get_varint()?,
            },
            OP_REJECTED => Response::Rejected {
                client_job: dec.get_varint()?,
                retry_after_ms: dec.get_u32()?,
            },
            OP_PROGRESS => Response::Progress {
                client_job: dec.get_varint()?,
                applied: dec.get_u32()?,
                total: dec.get_u32()?,
            },
            OP_VERDICT => {
                let client_job = dec.get_varint()?;
                let flags = dec.get_u8()?;
                if flags & !0x1f != 0 {
                    return Err(WireError::malformed(
                        0,
                        format!("unknown verdict flags {flags:#04x}"),
                    ));
                }
                let witness = if flags & 8 != 0 {
                    Some(dec.get_bytes()?)
                } else {
                    None
                };
                let certificate = if flags & 16 != 0 {
                    Some(dec.get_bytes()?)
                } else {
                    None
                };
                Response::Verdict {
                    client_job,
                    cached: flags & 1 != 0,
                    verdict: Verdict {
                        holds: flags & 2 != 0,
                        reachable_but_forbidden: flags & 4 != 0,
                        witness,
                        certificate,
                    },
                }
            }
            OP_JOB_ERROR => Response::JobError {
                client_job: dec.get_varint()?,
                message: dec.get_str()?,
            },
            OP_EXHAUSTED => Response::Exhausted {
                client_job: dec.get_varint()?,
                resource: resource_from_u8(dec.get_u8()?)?,
                limit: dec.get_varint()?,
                observed: dec.get_varint()?,
            },
            OP_STATS_REPORT => Response::StatsReport(DaemonStats {
                jobs_completed: dec.get_varint()?,
                cache_hits: dec.get_varint()?,
                cache_misses: dec.get_varint()?,
                rejected: dec.get_varint()?,
                queue_depth: dec.get_u32()?,
                workers: dec.get_u32()?,
                cache_entries: dec.get_varint()?,
                jobs_exhausted: dec.get_varint()?,
                jobs_panicked: dec.get_varint()?,
                verdicts_certified: dec.get_varint()?,
                certificates_rejected: dec.get_varint()?,
            }),
            OP_PONG => Response::Pong,
            OP_SHUTTING_DOWN => Response::ShuttingDown,
            OP_ERROR => Response::Error {
                code: ErrorCode::from_u8(dec.get_u8()?)?,
                message: dec.get_str()?,
            },
            other => {
                return Err(WireError::malformed(
                    0,
                    format!("unknown response opcode {other:#04x}"),
                ))
            }
        };
        dec.expect_end()?;
        Ok(response)
    }
}
