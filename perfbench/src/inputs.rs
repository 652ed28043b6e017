//! Workload inputs, generated from the workload seed, each with an expected
//! answer that does not come from the automata engine: a closed form, the
//! sparse simulator, or the construction of the input itself.

use std::collections::BTreeMap;

use autoq_amplitude::Algebraic;
use autoq_circuit::generators::{bernstein_vazirani, grover_all, grover_single, mc_toffoli};
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::qasm::write_qasm;
use autoq_circuit::Circuit;
use autoq_core::{BugHunter, Engine, StateSet};
use autoq_daemon::{JobLimits, JobRequest, Spec, SpecMode};
use autoq_simulator::SparseState;
use autoq_treeaut::format;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::mix;

/// The seed whose inputs reproduce the pinned Table 3 rows and the
/// alternating Table 2 hidden strings.
pub const DEFAULT_SEED: u64 = 42;

/// A `{P} C {Q}` triple whose expected verdict is "holds".
pub struct VerifyJob {
    pub name: String,
    pub engine: Engine,
    pub circuit: Circuit,
    pub pre: StateSet,
    pub post: StateSet,
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A hidden string of `n` bits with `⌈n / 2⌉` ones.  The default seed
/// gives the alternating string of the Table 2 harness; other seeds place
/// the ones at random, keeping the CNOT count (and so the work) fixed.
fn hidden_string(n: u32, seed: u64, stream: u64) -> Vec<bool> {
    let mut hidden: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    if seed != DEFAULT_SEED {
        shuffle(&mut hidden, &mut StdRng::seed_from_u64(mix(seed, stream)));
    }
    hidden
}

/// The Bernstein–Vazirani output `|s⟩ ⊗ |1⟩` as an MSB-first `u128` index,
/// valid up to the full 128-qubit width.
fn bv_output(hidden: &[bool]) -> u128 {
    let s = hidden
        .iter()
        .fold(0u128, |acc, &bit| (acc << 1) | u128::from(bit));
    (s << 1) | 1
}

/// The MCToffoli pre- and post-condition: every basis state whose work
/// qubits are clean; controls and target range freely.  The gate maps this
/// set onto itself, so `pre = post` by construction.
fn mct_set(circuit: &Circuit) -> StateSet {
    let n = circuit.num_qubits();
    let free: Vec<u32> = (0..n / 2).chain(std::iter::once(n - 1)).collect();
    StateSet::basis_pattern(n, 0, &free)
}

fn simulate(circuit: &Circuit, basis: u128) -> BTreeMap<u128, Algebraic> {
    SparseState::run(circuit, basis).into_amplitude_map()
}

fn grover_single_job(m: u32, seed: u64, stream: u64) -> (Circuit, StateSet, StateSet) {
    let marked = if seed == DEFAULT_SEED {
        (1u64 << m) - 1
    } else {
        StdRng::seed_from_u64(mix(seed, stream)).gen_range(0..1u64 << m)
    };
    let (circuit, _) = grover_single(m, marked, None);
    let n = circuit.num_qubits();
    let post = StateSet::from_state_maps(n, &[simulate(&circuit, 0)]);
    (circuit, StateSet::basis_state(n, 0), post)
}

fn grover_all_job(m: u32) -> (Circuit, StateSet, StateSet) {
    let (circuit, layout) = grover_all(m, None);
    let n = circuit.num_qubits();
    let outputs: Vec<BTreeMap<u128, Algebraic>> = (0..1u128 << m)
        .map(|oracle| {
            let basis = layout
                .oracle
                .iter()
                .enumerate()
                .filter(|&(bit, _)| oracle >> bit & 1 == 1)
                .fold(0u128, |acc, (_, &q)| acc | 1u128 << (n - 1 - q));
            simulate(&circuit, basis)
        })
        .collect();
    let pre = StateSet::basis_pattern(n, 0, &layout.oracle);
    (circuit, pre, StateSet::from_state_maps(n, &outputs))
}

/// The Table 2 triples of the `verify` workload, each under both engines.
pub fn verify_jobs(seed: u64) -> Vec<VerifyJob> {
    let mut triples: Vec<(String, Circuit, StateSet, StateSet)> = Vec::new();
    for (stream, n) in [32u32, 64, 127].into_iter().enumerate() {
        let hidden = hidden_string(n, seed, stream as u64);
        let circuit = bernstein_vazirani(&hidden);
        let pre = StateSet::basis_state(n + 1, 0);
        let post = StateSet::basis_state(n + 1, bv_output(&hidden));
        triples.push((format!("BV{n}"), circuit, pre, post));
    }
    for m in [16u32, 32] {
        let circuit = mc_toffoli(m);
        let set = mct_set(&circuit);
        triples.push((format!("MCToffoli{m}"), circuit, set.clone(), set));
    }
    for (stream, m) in [4u32, 6].into_iter().enumerate() {
        let (circuit, pre, post) = grover_single_job(m, seed, 10 + stream as u64);
        triples.push((format!("Grover-Sing{m}"), circuit, pre, post));
    }
    for m in [3u32, 4] {
        let (circuit, pre, post) = grover_all_job(m);
        triples.push((format!("Grover-All{m}"), circuit, pre, post));
    }
    let mut jobs = Vec::new();
    for (name, circuit, pre, post) in triples {
        for (label, engine) in [
            ("hybrid", Engine::hybrid()),
            ("composition", Engine::composition()),
        ] {
            jobs.push(VerifyJob {
                name: format!("{name}.{label}"),
                engine,
                circuit: circuit.clone(),
                pre: pre.clone(),
                post: post.clone(),
            });
        }
    }
    jobs
}

/// One Table 3 row: a circuit, its copy with one injected gate, and the
/// hunt seed.  The expected answer is "bug found", confirmed by the
/// simulator.
pub struct HuntJob {
    pub name: String,
    pub original: Circuit,
    pub buggy: Circuit,
    pub hunt_seed: u64,
    pub hunter: BugHunter,
}

/// Row names may carry only letters, digits, `_`, `.` and `-`.
fn metric_safe(name: &str) -> String {
    name.replace('^', "-")
}

/// The pinned Table 3 rows: the 11 default rows with the `table3` binary's
/// row seeds (42 + index) and the paper-scale rows with their pinned seeds,
/// without `random70` (23 s alone; `random35` takes the same superposing
/// path).  The injected bugs and hunt seeds are those of the tables; the
/// workload seed only shuffles the row order, because other injections
/// change the work tenfold and some leave the injected gate unobservable.
pub fn hunt_jobs(seed: u64) -> Vec<HuntJob> {
    let mut rows: Vec<(String, Circuit, bool, u64)> = autoq_bench::table3::default_workload()
        .into_iter()
        .enumerate()
        .map(|(index, (name, circuit, superposing))| {
            (name, circuit, superposing, 42 + index as u64)
        })
        .collect();
    rows.extend(
        autoq_bench::table3::paper_scale_workload()
            .into_iter()
            .filter(|(name, ..)| name != "random70"),
    );
    let mut jobs: Vec<HuntJob> = rows
        .into_iter()
        .map(|(name, original, superposing, row_seed)| {
            let mut rng = StdRng::seed_from_u64(row_seed);
            let (buggy, _) = inject_random_gate(&original, superposing, &mut rng);
            let hunter = BugHunter::new(Engine::hybrid())
                .with_max_iterations(original.num_qubits().min(10) + 1);
            HuntJob {
                name: metric_safe(&name),
                original,
                buggy,
                hunt_seed: row_seed ^ 0xabcd,
                hunter,
            }
        })
        .collect();
    if seed != DEFAULT_SEED {
        shuffle(&mut jobs, &mut StdRng::seed_from_u64(mix(seed, 20)));
    }
    jobs
}

/// What a served job must answer.
#[derive(Clone, Debug)]
pub enum Expected {
    /// The triple holds; a certificate must come with it when asked for.
    Holds,
    /// The triple is violated: the circuit maps `|0…0⟩` to `output`, which
    /// the post-condition does not contain.
    Violated { circuit: Circuit },
}

/// A job for the daemon with its expected answer.
#[derive(Clone)]
pub struct ServeJob {
    pub name: String,
    pub request: JobRequest,
    pub expected: Expected,
}

fn request(circuit: &Circuit, pre: Spec, post: Spec) -> JobRequest {
    JobRequest {
        qasm: write_qasm(circuit),
        pre,
        post,
        mode: SpecMode::Equality,
        want_witness: false,
        limits: JobLimits::default(),
        want_certificate: false,
    }
}

fn basis_spec(num_qubits: u32, basis: u128) -> Spec {
    Spec::Basis { num_qubits, basis }
}

fn set_spec(set: &StateSet) -> Spec {
    Spec::Automaton {
        num_qubits: set.num_qubits(),
        bytes: format::to_binary(set.automaton()),
    }
}

fn bv_job(name: &str, hidden: &[bool]) -> ServeJob {
    let circuit = bernstein_vazirani(hidden);
    let n = circuit.num_qubits();
    ServeJob {
        name: name.to_string(),
        request: request(&circuit, basis_spec(n, 0), basis_spec(n, bv_output(hidden))),
        expected: Expected::Holds,
    }
}

/// The MCToffoli triple restricted to a seeded pattern: some controls are
/// fixed, the others and the target range freely, the work qubits are
/// clean.  The gate maps every such set onto itself.
fn mct_pattern_job(name: &str, m: u32, rng: &mut StdRng) -> ServeJob {
    let circuit = mc_toffoli(m);
    let n = circuit.num_qubits();
    let mut fixed = 0u128;
    let mut free = Vec::new();
    for q in 0..m {
        if rng.gen::<bool>() {
            free.push(q);
        } else if rng.gen::<bool>() {
            fixed |= 1u128 << (n - 1 - q);
        }
    }
    free.push(n - 1);
    let pattern = Spec::Pattern {
        num_qubits: n,
        fixed,
        free,
    };
    ServeJob {
        name: name.to_string(),
        request: request(&circuit, pattern.clone(), pattern),
        expected: Expected::Holds,
    }
}

impl ServeJob {
    fn certified(mut self) -> Self {
        self.request.want_certificate = true;
        self
    }
}

/// The hot set the reader cycles: Table 2-sized triples, computed once
/// cold during set-up and cache hits afterwards.
pub fn serve_hot_set(seed: u64) -> Vec<ServeJob> {
    let (gs_circuit, gs_pre, gs_post) = grover_single_job(5, seed, 30);
    let (ga_circuit, ga_pre, ga_post) = grover_all_job(3);
    let mct = mc_toffoli(16);
    let mct_all = mct_set(&mct);
    vec![
        bv_job("hot.BV127", &hidden_string(127, seed, 31)),
        bv_job("hot.BV64-cert", &hidden_string(64, seed, 32)).certified(),
        ServeJob {
            name: "hot.MCToffoli16".into(),
            request: request(&mct, set_spec(&mct_all), set_spec(&mct_all)),
            expected: Expected::Holds,
        },
        ServeJob {
            name: "hot.Grover-Sing5".into(),
            request: request(&gs_circuit, set_spec(&gs_pre), set_spec(&gs_post)),
            expected: Expected::Holds,
        },
        ServeJob {
            name: "hot.Grover-All3".into(),
            request: request(&ga_circuit, set_spec(&ga_pre), set_spec(&ga_post)),
            expected: Expected::Holds,
        },
    ]
}

/// Round `round` of the writer's stream of fresh jobs, each a cache miss:
/// BV triples with fresh hidden strings (one of them certified), a BV
/// circuit checked against another hidden string's post-condition (a
/// violation that must carry a witness), and a certified MCToffoli triple
/// over a seeded pattern.  The BV widths keep a round near a third of a
/// second on two cores, so a window collects hundreds of misses.
pub fn serve_fresh_round(seed: u64, round: u64) -> Vec<ServeJob> {
    let mut rng = StdRng::seed_from_u64(mix(mix(seed, 40), round));
    let mut hidden = |n: u32| -> Vec<bool> {
        let mut h: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        shuffle(&mut h, &mut rng);
        h
    };
    let plain = hidden(32);
    let certified = hidden(32);
    let wide = hidden(48);
    let violated = hidden(32);
    let mut other = hidden(32);
    if other == violated {
        other[0] = !other[0];
    }
    let bad_circuit = bernstein_vazirani(&violated);
    let n = bad_circuit.num_qubits();
    let mut bad = ServeJob {
        name: "fresh.BV32-violated".into(),
        request: request(
            &bad_circuit,
            basis_spec(n, 0),
            basis_spec(n, bv_output(&other)),
        ),
        expected: Expected::Violated {
            circuit: bad_circuit.clone(),
        },
    };
    bad.request.want_witness = true;
    let mct = mct_pattern_job("fresh.MCToffoli16-cert", 16, &mut rng).certified();
    vec![
        bv_job("fresh.BV32", &plain),
        bv_job("fresh.BV32-cert", &certified).certified(),
        bad,
        bv_job("fresh.BV48", &wide),
        mct,
    ]
}

/// Checks a daemon verdict against the expected answer; `None` when right.
pub fn check_verdict(job: &ServeJob, verdict: &autoq_daemon::Verdict) -> Option<String> {
    match &job.expected {
        Expected::Holds => {
            if !verdict.holds {
                return Some("expected holds, got violated".into());
            }
            if job.request.want_certificate && verdict.certificate.is_none() {
                return Some("certified job answered without a certificate".into());
            }
            None
        }
        Expected::Violated { circuit } => {
            if verdict.holds {
                return Some("expected violated, got holds".into());
            }
            let Some(bytes) = &verdict.witness else {
                return Some("violation without the requested witness".into());
            };
            let witness = match format::tree_from_binary(bytes) {
                Ok(tree) => SparseState::from_tree(&tree).into_amplitude_map(),
                Err(e) => return Some(format!("undecodable witness: {e}")),
            };
            let output = simulate(circuit, 0);
            // A reachable witness must be the simulated output; an
            // unreachable one must differ from it.
            let agrees = (witness == output) == verdict.reachable_but_forbidden;
            (!agrees).then(|| "the simulator refutes the witness".to_string())
        }
    }
}
