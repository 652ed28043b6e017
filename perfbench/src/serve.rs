//! The `serve` workload: the `autoq-daemon` binary under two closed-loop
//! connections from one process.  A writer submits rounds of fresh jobs
//! (misses) while a reader cycles a hot set of cache hits until the
//! writer's round is done; each caller waits for its verdict before sending
//! the next job.
//!
//! The traced run measures the daemon the same way, then replays the same
//! job stream in this process through the functions the server calls
//! (codec, `parse_qasm`, `circuit_digest`, `spec_digest`, the verdict
//! cache, `materialize`, the engine, the journal) with each call in a span.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use autoq_circuit::digest::{circuit_digest, sha256};
use autoq_circuit::qasm::parse_qasm;
use autoq_core::{CancelFlag, Engine, Interrupt};
use autoq_daemon::cache::{journal_record, spec_digest};
use autoq_daemon::engine::{materialize, JobInputs, VerifyEngine};
use autoq_daemon::{
    CachedVerdict, Client, FileStore, JobOutcome, RealEngine, Request, Response, VerdictCache,
    VerdictKey, VerdictStore,
};
use autoq_treeaut::format::{certificates_to_binary, tree_to_binary};
use autoq_treeaut::{inclusion_with_certificate, CertifiedInclusionResult, Tree, TreeAutomaton};

use crate::host::HostMeter;
use crate::inputs::{check_verdict, serve_fresh_round, serve_hot_set, ServeJob};
use crate::layers::{self, Counters, Determinism};
use crate::replay;
use crate::trace::Tracer;
use crate::util::{cpu_seconds, median, peak_rss_mib, percentile, Outcome};
use crate::Args;

/// Set-ups per run: each spawns a daemon and computes the hot set cold.
const SETUP_REPEATS: usize = 3;
/// The traced replay covers at most this many hits ...
const REPLAY_HITS: usize = 4000;
/// ... and the misses of this many writer rounds.
const REPLAY_ROUNDS: u64 = 10;

/// A running daemon process; killed and reaped on drop.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(binary: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--cache-file"])
            .arg(dir.join("cache.aqvc"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .split_whitespace()
            .skip_while(|word| *word != "on")
            .nth(1)
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
            dir,
        };
        daemon.addr = addr.ok_or(format!("unexpected daemon banner {line:?}"))?;
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Asks the daemon to shut down (it persists its cache) and reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).map_or(0, |n| n) > 0 {}
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered request of the timed window.
struct Sample {
    job: ServeJob,
    /// Writer round, `None` for the reader's hits.
    round: Option<u64>,
    cached: bool,
    latency: f64,
    verdict: Option<autoq_daemon::Verdict>,
}

fn submit(
    client: &mut Client,
    job: &ServeJob,
) -> (Option<autoq_daemon::Verdict>, bool, Option<String>) {
    match client.verify(job.request.clone()) {
        Ok(JobOutcome::Verdict { verdict, cached }) => {
            let problem = check_verdict(job, &verdict);
            (Some(verdict), cached, problem)
        }
        Ok(other) => (None, false, Some(format!("no verdict: {other:?}"))),
        Err(e) => (None, false, Some(format!("wire error: {e}"))),
    }
}

struct Setup {
    daemon: Daemon,
    hot: Vec<ServeJob>,
}

/// Generates the hot set, starts a daemon and computes the hot set cold,
/// `SETUP_REPEATS` times, with host meter samples between the steps;
/// records each set-up's time scaled by the host's slowdown and keeps the
/// last daemon running.  The writer generates each round of fresh jobs
/// before its pass starts.
fn set_up(args: &Args, out: &mut Outcome, setup_times: &mut Vec<f64>) -> Result<Setup, String> {
    let mut kept = None;
    let mut meter = HostMeter::default();
    for repeat in 0..SETUP_REPEATS {
        let (started, time) = meter.timed(|meter| {
            let hot = serve_hot_set(args.seed);
            let dir = args
                .out
                .join(format!("serve-{}-{repeat}", std::process::id()));
            let daemon = Daemon::spawn(&args.daemon, dir)?;
            let mut client = daemon.connect()?;
            for job in &hot {
                meter.sample();
                let (_, _, problem) = submit(&mut client, job);
                out.check(&job.name, problem);
            }
            Ok::<_, String>(Setup { daemon, hot })
        });
        setup_times.push(time);
        if let Some(previous) = kept.replace(started?) {
            let dir = previous.daemon.dir.clone();
            previous.daemon.shutdown()?;
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    Ok(kept.expect("at least one set-up"))
}

/// The timed window: passes until `--seconds` are over.  In each pass the
/// writer submits one round of fresh jobs while the reader submits hot-set
/// jobs until the writer's round is done, each on its own connection, so
/// how many hits ride along each miss follows from the system's own speed.
fn window(args: &Args, setup: &Setup, out: &mut Outcome) -> Result<Window, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let round_done = AtomicBool::new(false);
    let (mut reader_client, mut writer_client) = (setup.daemon.connect()?, setup.daemon.connect()?);
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut samples, mut problems) = (Vec::new(), Vec::new());
            let mut hot = setup.hot.iter().cycle();
            loop {
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                while !round_done.load(Ordering::SeqCst) {
                    let job = hot.next().expect("the hot set is not empty");
                    let sent = Instant::now();
                    let (verdict, cached, problem) = submit(&mut reader_client, job);
                    let latency = sent.elapsed().as_secs_f64();
                    problems.extend(problem.map(|p| format!("{}: {p}", job.name)));
                    samples.push(Sample {
                        job: job.clone(),
                        round: None,
                        cached,
                        latency,
                        verdict,
                    });
                }
                barrier.wait();
            }
            (samples, problems)
        });
        let writer = scope.spawn(|| {
            let (mut samples, mut problems, mut passes) = (Vec::new(), Vec::new(), Vec::new());
            let mut meter = HostMeter::default();
            for round in 0.. {
                let jobs = serve_fresh_round(args.seed, round);
                // While the reader waits at the barrier and the daemon idles.
                meter.sample();
                round_done.store(false, Ordering::SeqCst);
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let start = Instant::now();
                for job in &jobs {
                    let sent = Instant::now();
                    let (verdict, cached, problem) = submit(&mut writer_client, job);
                    let latency = sent.elapsed().as_secs_f64();
                    problems.extend(problem.map(|p| format!("{}: {p}", job.name)));
                    samples.push(Sample {
                        job: job.clone(),
                        round: Some(round),
                        cached,
                        latency,
                        verdict,
                    });
                }
                round_done.store(true, Ordering::SeqCst);
                barrier.wait();
                passes.push(start.elapsed().as_secs_f64());
                if Instant::now() >= deadline {
                    stop.store(true, Ordering::SeqCst);
                }
            }
            (samples, problems, passes, meter.slowdown())
        });
        (reader.join(), writer.join())
    });
    let (mut samples, reader_problems) = reader.map_err(|_| "reader panicked")?;
    let (writer_samples, writer_problems, passes, slowdown) =
        writer.map_err(|_| "writer panicked")?;
    samples.extend(writer_samples);
    let problems: Vec<String> = reader_problems.into_iter().chain(writer_problems).collect();
    out.attempted += samples.len() as u64;
    out.failed += problems.len() as u64;
    out.failures.extend(problems.into_iter().take(20));
    Ok(Window {
        samples,
        passes,
        slowdown,
    })
}

/// What the timed window measured.
struct Window {
    samples: Vec<Sample>,
    /// Wall time of each pass.
    passes: Vec<f64>,
    /// The host's slowdown over the window, sampled before each pass.
    slowdown: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let setup = set_up(args, &mut out, &mut setup_times)?;
    let pid = setup.daemon.pid();
    let cpu = cpu_seconds(&pid);
    let Window {
        samples,
        passes,
        slowdown,
    } = window(args, &setup, &mut out)?;
    let cpu = cpu_seconds(&pid) - cpu;
    let rss = peak_rss_mib(&pid);
    let stats = setup
        .daemon
        .connect()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let dir = setup.daemon.dir.clone();
    setup.daemon.shutdown()?;
    if !args.trace {
        let _ = std::fs::remove_dir_all(&dir);
        out.metric("setup_s", median(&setup_times), "s");
        eprintln!(
            "perfbench: {} verdicts ({} misses) in {} passes",
            samples.len(),
            samples.iter().filter(|s| s.round.is_some()).count(),
            passes.len()
        );
        // Passes last a fraction of a second, so every figure is taken
        // over the whole window, scaled by the host's slowdown.
        let window_s = passes.iter().sum::<f64>() / slowdown;
        out.metric("pass_s", window_s / passes.len() as f64, "s");
        out.metric("cpu_s", cpu / slowdown / passes.len() as f64, "s");
        out.metric("peak_rss_mb", rss, "MiB");
        out.metric("verdicts_per_s", samples.len() as f64 / window_s, "1/s");
        out.note("host_slowdown", slowdown);
        return Ok(out);
    }
    let before = Counters::now();
    let mut tr = Tracer::new();
    let mut replay = Replay::new(&dir);
    let recover = tr.open("daemon.store.recover");
    let recovered = recover_cache(&dir.join("cache.aqvc"));
    tr.close(recover);
    if recovered? < setup.hot.len() {
        out.check(
            "recovery",
            Some("the recovered cache lost hot-set verdicts".into()),
        );
    }
    // The hot set's cold computation first, as in set-up, then the window.
    // Each hot job's engine replay runs once more on a tracer of its own,
    // and its counts must repeat.
    let mut determinism = Determinism::new();
    for (index, job) in setup.hot.iter().enumerate() {
        tr.set_job(index as u64);
        let counts_before = layers::job_counts(&tr);
        replay.request(&mut tr, job, None, &mut out);
        determinism.observe(&job.name, layers::job_counts_since(&tr, &counts_before));
        determinism.observe(&job.name, engine_counts(job));
    }
    // Queueing, socket and scheduling time of a hit: its client latency
    // minus its replayed in-process time.  (For a miss the replayed engine
    // run is a second execution whose time differs from the daemon's by
    // more than the wait, so misses are left out.)
    let mut hit_waits = Vec::new();
    let mut hits_replayed = 0;
    for (index, sample) in samples.iter().enumerate() {
        let keep = match sample.round {
            None => {
                hits_replayed += 1;
                hits_replayed <= REPLAY_HITS
            }
            Some(round) => round < REPLAY_ROUNDS,
        };
        if !keep {
            continue;
        }
        tr.set_job((setup.hot.len() + index) as u64);
        let in_process = replay.request(&mut tr, &sample.job, sample.verdict.as_ref(), &mut out);
        if sample.cached {
            hit_waits.push(sample.latency - in_process);
        }
    }
    layers::report(&mut out, &tr, 1, &before);
    let latencies = |cached: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.cached == cached)
            .map(|s| s.latency * 1e3)
            .collect()
    };
    let (hits, misses) = (latencies(true), latencies(false));
    out.metric("serve.hit_p50_ms", percentile(&hits, 50.0), "ms");
    out.metric("serve.hit_p99_ms", percentile(&hits, 99.0), "ms");
    out.metric("serve.miss_p50_ms", percentile(&misses, 50.0), "ms");
    out.metric("serve.miss_p90_ms", percentile(&misses, 90.0), "ms");
    out.metric("serve.hit_samples", hits.len() as f64, "count");
    out.metric("serve.miss_samples", misses.len() as f64, "count");
    let lookups = stats.cache_hits + stats.cache_misses;
    out.metric(
        "daemon.cache.hit_frac",
        stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric("daemon.rejected", stats.rejected as f64, "count");
    out.metric("daemon.server.wait_s", median(&hit_waits), "s");
    out.metric(
        "core.engine.other_s",
        replay.untraced - replay.engine_layers,
        "s",
    );
    out.metric("trace.overhead", replay.traced / replay.untraced, "ratio");
    out.metric("trace.untraced_pass_s", replay.untraced, "s");
    out.metric("trace.traced_pass_s", replay.traced, "s");
    out.metric("trace.replay_mismatches", replay.mismatches as f64, "count");
    out.metric(
        "trace.nondeterministic_counts",
        determinism.differing as f64,
        "count",
    );
    crate::write_trace(args, &tr);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// The exact counts of one job's engine replay, on a tracer of its own.
fn engine_counts(job: &ServeJob) -> Vec<f64> {
    let mut probe = Tracer::new();
    let circuit = parse_qasm(&job.request.qasm).expect("generated QASM parses");
    let inputs = materialize(circuit, &job.request).expect("generated jobs materialise");
    replay_engine(&mut probe, &inputs);
    layers::job_counts(&probe)
}

/// Recovers a verdict cache from the daemon's files as the daemon does at
/// start-up (snapshot, then journal replay); returns the entry count.
fn recover_cache(path: &Path) -> Result<usize, String> {
    let store = FileStore::new(path);
    let snapshot = store.load().map_err(|e| format!("load snapshot: {e}"))?;
    let cache = match snapshot {
        Some(bytes) => VerdictCache::from_snapshot(&bytes).map_err(|e| format!("snapshot: {e}"))?,
        None => VerdictCache::new(),
    };
    let journal = store
        .load_journal()
        .map_err(|e| format!("load journal: {e}"))?;
    cache.replay_journal(&journal);
    Ok(cache.len())
}

/// The in-process replay of the server's request path.
struct Replay {
    cache: VerdictCache,
    store: FileStore,
    engine: RealEngine,
    next_job: u64,
    untraced: f64,
    traced: f64,
    engine_layers: f64,
    mismatches: u64,
}

/// A verdict as the engine hands it to the server.
#[derive(Debug, PartialEq)]
struct EngineAnswer {
    holds: bool,
    reachable_but_forbidden: bool,
    witness: Option<Tree>,
    certified: bool,
}

impl Replay {
    fn new(dir: &Path) -> Self {
        let path = dir.join("replay.aqvc");
        let _ = std::fs::remove_file(&path);
        Replay {
            cache: VerdictCache::new(),
            store: FileStore::new(path),
            engine: RealEngine::new(Engine::hybrid()),
            next_job: 0,
            untraced: 0.0,
            traced: 0.0,
            engine_layers: 0.0,
            mismatches: 0,
        }
    }

    /// Replays one request; returns its in-process time in seconds (the
    /// untraced `RealEngine::verify` run for the fidelity check excluded).
    fn request(
        &mut self,
        tr: &mut Tracer,
        job: &ServeJob,
        daemon_verdict: Option<&autoq_daemon::Verdict>,
        out: &mut Outcome,
    ) -> f64 {
        self.next_job += 1;
        let client_job = self.next_job;
        let untraced_before = self.untraced;
        let root = tr.open("replay.request");
        let request = tr.span("daemon.proto", || {
            let bytes = Request::Submit {
                client_job,
                job: job.request.clone(),
            }
            .encode();
            Request::decode(&bytes).expect("a request this process encoded decodes")
        });
        let Request::Submit { job: request, .. } = request else {
            unreachable!("decoded the Submit just encoded")
        };
        let circuit = tr
            .span("circuit.qasm", || parse_qasm(&request.qasm))
            .expect("generated QASM parses");
        let circuit_key = tr.span("circuit.digest", || circuit_digest(&circuit));
        let spec_key = tr.span("daemon.cache.spec_digest", || spec_digest(&request));
        let key = VerdictKey {
            circuit: circuit_key,
            spec: spec_key,
        };
        let cached = tr.span("daemon.cache", || {
            self.cache.lookup(&key, request.want_certificate)
        });
        let hit = cached.is_some();
        let verdict = match cached {
            Some(verdict) => verdict,
            None => {
                let inputs = tr
                    .span("daemon.materialize", || materialize(circuit, &request))
                    .expect("generated jobs materialise");
                let verdict = self.engine_verdict(tr, &job.name, &inputs, out);
                tr.span("daemon.store.append", || {
                    self.store.append_journal(&journal_record(&key, &verdict))
                })
                .expect("the replay journal is writable");
                tr.span("daemon.cache", || self.cache.insert(key, verdict.clone()));
                verdict
            }
        };
        tr.span("daemon.proto", || {
            Response::Verdict {
                client_job,
                cached: hit,
                verdict: autoq_daemon::Verdict {
                    holds: verdict.holds,
                    reachable_but_forbidden: verdict.reachable_but_forbidden,
                    witness: verdict.witness.clone(),
                    certificate: verdict
                        .certificate
                        .clone()
                        .filter(|_| request.want_certificate),
                },
            }
            .encode()
        });
        let elapsed = tr.close(root) - (self.untraced - untraced_before);
        if let Some(daemon) = daemon_verdict {
            if daemon.holds != verdict.holds
                || daemon.reachable_but_forbidden != verdict.reachable_but_forbidden
            {
                self.mismatches += 1;
                out.check(
                    &job.name,
                    Some("replayed verdict differs from the daemon's".into()),
                );
            }
        }
        elapsed
    }

    /// The engine step of a miss: `RealEngine::verify` untraced, then its
    /// replay in spans; both must agree.
    fn engine_verdict(
        &mut self,
        tr: &mut Tracer,
        name: &str,
        inputs: &JobInputs,
        out: &mut Outcome,
    ) -> CachedVerdict {
        let interrupt = Interrupt::from_flag(CancelFlag::new());
        let start = Instant::now();
        let expected = self
            .engine
            .verify(inputs, &interrupt, &mut |_, _| {})
            .map(|v| EngineAnswer {
                holds: v.holds,
                reachable_but_forbidden: v.reachable_but_forbidden,
                witness: v.witness,
                certified: v.certificate.is_some(),
            });
        self.untraced += start.elapsed().as_secs_f64();
        let mark = tr.mark();
        let span = tr.open("daemon.engine");
        let (answer, certificate) = replay_engine(tr, inputs);
        self.traced += tr.close(span);
        self.engine_layers += layers::engine_layer_seconds(tr, mark);
        match expected {
            Ok(expected) if expected == answer => {}
            other => {
                self.mismatches += 1;
                let problem = format!("replay {answer:?} != RealEngine::verify {other:?}");
                out.check(name, Some(problem));
            }
        }
        CachedVerdict {
            holds: answer.holds,
            reachable_but_forbidden: answer.reachable_but_forbidden,
            witness: answer
                .witness
                .as_ref()
                .filter(|_| inputs.want_witness)
                .map(tree_to_binary),
            certificate,
        }
    }
}

/// The replay of `RealEngine::verify`: the gate loop, then the plain
/// equivalence check or, for certificate requests, the certified
/// comparison (both inclusion directions with certificates, the bundle,
/// and the independent checker).
fn replay_engine(tr: &mut Tracer, inputs: &JobInputs) -> (EngineAnswer, Option<Vec<u8>>) {
    let engine = Engine::hybrid();
    let (output, _) = replay::apply_circuit(tr, &engine, &inputs.pre, &inputs.circuit);
    let post = inputs.post.automaton();
    let violated = |witness: &Tree, reachable_but_forbidden: bool| EngineAnswer {
        holds: false,
        reachable_but_forbidden,
        witness: Some(witness.clone()),
        certified: false,
    };
    if !inputs.want_certificate {
        let result = replay::equivalent(tr, &output, post);
        let answer = match &result {
            autoq_treeaut::EquivalenceResult::Equivalent => EngineAnswer {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certified: false,
            },
            autoq_treeaut::EquivalenceResult::OnlyInLeft(w) => violated(w, true),
            autoq_treeaut::EquivalenceResult::OnlyInRight(w) => violated(w, false),
        };
        return (answer, None);
    }
    let included = |tr: &mut Tracer, a: &TreeAutomaton, b: &TreeAutomaton| {
        tr.span("treeaut.certificate", || inclusion_with_certificate(a, b))
            .expect("the certificate builder accepts engine output")
    };
    let forward = match included(tr, &output, post) {
        CertifiedInclusionResult::Counterexample(w) => return (violated(&w, true), None),
        CertifiedInclusionResult::Included(cert) => cert,
    };
    let backward = match included(tr, post, &output) {
        CertifiedInclusionResult::Counterexample(w) => return (violated(&w, false), None),
        CertifiedInclusionResult::Included(cert) => cert,
    };
    let certs = [forward, backward];
    let bytes = tr.span("treeaut.certificate", || {
        let bytes = certificates_to_binary(&certs);
        std::hint::black_box(sha256(&bytes));
        bytes
    });
    tr.add("treeaut.certificate.bytes", bytes.len() as f64);
    let checked = tr.span("certify.check", || {
        autoq_certify::check_inclusion(&output, post, &certs[0])
            .and_then(|()| autoq_certify::check_inclusion(post, &output, &certs[1]))
    });
    let answer = EngineAnswer {
        holds: true,
        reachable_but_forbidden: false,
        witness: None,
        certified: checked.is_ok(),
    };
    (answer, Some(bytes))
}
