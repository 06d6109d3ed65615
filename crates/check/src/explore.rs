//! Schedule exploration: exhaustive DFS, randomized sampling, and
//! seed replay over the virtual-thread runtime (`crate::rt`).
//!
//! An execution of a model is fully determined by the sequence of
//! choices the scheduler makes at its decision points (≥ 2 schedulable
//! threads, or ≥ 2 condvar waiters for a `notify_one`). That sequence
//! doubles as the **replay seed**: a violation is reported with the
//! seed that produced it, and [`replay`] re-runs exactly that
//! interleaving — so a failure found by the exhaustive or randomized
//! explorer is reproducible in a debugger with zero flakiness.
//!
//! * [`explore`] — bounded-exhaustive DFS: enumerate every decision
//!   sequence up to the configured bounds, backtracking like an
//!   iterative-deepening tree walk. Complete for models whose state
//!   space fits the bounds; [`Outcome::BoundExceeded`] (never a silent
//!   pass) when it does not.
//! * [`explore_random`] — seeded random walks for models whose space
//!   is too large to exhaust; still yields a deterministic replay seed
//!   on failure.
//! * [`check`] — `explore` + panic on anything but a clean pass, for
//!   use inside `#[test]`s. Prints the replay seed in the panic
//!   message.

use std::sync::{Arc, Mutex as StdMutex};

use crate::rt::{self, Chooser};

/// Exploration bounds. `Default` suits the in-tree protocol models;
/// raise the bounds for bigger models, or switch to
/// [`explore_random`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Per-execution scheduling-point budget; exceeding it fails the
    /// execution (livelock / unbounded model).
    pub max_steps: usize,
    /// Executions budget for [`explore`]; exceeding it returns
    /// [`Outcome::BoundExceeded`].
    pub max_executions: usize,
    /// Virtual-thread cap per execution (spawning more is a model bug
    /// and panics).
    pub max_threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_steps: 20_000,
            max_executions: 100_000,
            max_threads: 8,
        }
    }
}

/// What an exploration found.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every explored interleaving upheld the model's assertions.
    Pass {
        /// Number of complete executions explored.
        executions: usize,
    },
    /// Some interleaving failed; `seed` replays it.
    Violation(Violation),
    /// The state space did not fit `Config::max_executions`; the model
    /// must shrink (or use [`explore_random`]). Never treated as a
    /// pass.
    BoundExceeded {
        /// Executions completed before giving up.
        executions: usize,
    },
}

/// A failing interleaving: the assertion/deadlock message plus the
/// replay seed that deterministically reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The model's assertion message, panic payload, or the runtime's
    /// deadlock/step-bound diagnostic.
    pub message: String,
    /// Decision sequence encoded for [`replay`].
    pub seed: String,
    /// Executions completed before this one failed.
    pub executions: usize,
}

/// Seed alphabet: one character per decision, index into the
/// schedulable set (the runtime asserts ≤ 36 options).
const ALPHABET: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// Encode a decision sequence as a replay-seed string ("-" when the
/// execution had no decision points at all).
pub(crate) fn encode_seed(schedule: &[u8]) -> String {
    if schedule.is_empty() {
        return "-".to_string();
    }
    schedule
        .iter()
        .map(|&c| ALPHABET[c as usize] as char)
        .collect()
}

/// Decode a replay-seed string; `Err` names the offending character.
pub(crate) fn decode_seed(seed: &str) -> Result<Vec<u8>, String> {
    if seed == "-" {
        return Ok(Vec::new());
    }
    seed.bytes()
        .map(|b| {
            ALPHABET
                .iter()
                .position(|&a| a == b)
                .map(|i| i as u8)
                .ok_or_else(|| format!("invalid seed character {:?} in {seed:?}", b as char))
        })
        .collect()
}

/// DFS frontier: the decision prefix to replay on the next execution.
///
/// Each frame remembers the branch taken and the branching factor at
/// one decision point. Executions are deterministic given their
/// decision prefix, so re-running with an incremented last frame
/// walks the sibling subtree; popping exhausted frames backtracks.
struct DfsChooser {
    frames: Vec<Frame>,
    cursor: usize,
}

struct Frame {
    chosen: usize,
    options: usize,
}

impl DfsChooser {
    fn new() -> Self {
        Self {
            frames: Vec::new(),
            cursor: 0,
        }
    }

    /// Advance to the next unexplored decision prefix; `false` when
    /// the whole tree has been walked.
    fn advance(&mut self) -> bool {
        while let Some(last) = self.frames.last_mut() {
            if last.chosen + 1 < last.options {
                last.chosen += 1;
                self.cursor = 0;
                return true;
            }
            self.frames.pop();
        }
        false
    }
}

impl Chooser for DfsChooser {
    fn choose(&mut self, options: usize) -> Result<usize, String> {
        if self.cursor == self.frames.len() {
            self.frames.push(Frame { chosen: 0, options });
        }
        let frame = &self.frames[self.cursor];
        // Determinism check: the same prefix must reproduce the same
        // branching factor (a mismatch means the model does non-shim
        // communication, which the checker cannot explore soundly).
        if frame.options != options {
            return Err(format!(
                "nondeterministic model: decision {} had {} options, now {} \
                 (model communicates outside the isi_check shims)",
                self.cursor, frame.options, options
            ));
        }
        let pick = frame.chosen;
        self.cursor += 1;
        Ok(pick)
    }
}

/// SplitMix64-driven chooser for randomized exploration.
struct RandomChooser {
    state: u64,
}

impl RandomChooser {
    fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, options: usize) -> Result<usize, String> {
        Ok((self.next() % options as u64) as usize)
    }
}

/// Replays a recorded decision sequence; once the recording is
/// exhausted (the failure fired before the execution finished) it
/// falls back to the first option, which cannot diverge from any
/// recorded state.
struct ReplayChooser {
    seq: Vec<u8>,
    cursor: usize,
}

impl Chooser for ReplayChooser {
    fn choose(&mut self, options: usize) -> Result<usize, String> {
        let Some(&c) = self.seq.get(self.cursor) else {
            return Ok(0);
        };
        self.cursor += 1;
        if (c as usize) >= options {
            return Err(format!(
                "replay diverged: decision {} picks option {c} of {options} \
                 (seed from a different model or config?)",
                self.cursor - 1
            ));
        }
        Ok(c as usize)
    }
}

/// Exhaustively explore every interleaving of `model` within `cfg`'s
/// bounds.
///
/// The model closure is executed once per interleaving; it must build
/// all of its state internally (via [`crate::sync`] /
/// [`crate::vt`]) so each execution starts fresh.
pub fn explore(cfg: Config, model: impl Fn() + Sync) -> Outcome {
    let dfs = Arc::new(StdMutex::new(DfsChooser::new()));
    let mut executions = 0usize;
    loop {
        let chooser: Arc<StdMutex<dyn Chooser>> = Arc::clone(&dfs) as _;
        let result = rt::run_once(&model, chooser, cfg);
        executions += 1;
        if let Some(failure) = result.failure {
            return Outcome::Violation(Violation {
                message: failure.message,
                seed: encode_seed(&failure.schedule),
                executions,
            });
        }
        if executions >= cfg.max_executions {
            return Outcome::BoundExceeded { executions };
        }
        if !dfs.lock().unwrap_or_else(|e| e.into_inner()).advance() {
            return Outcome::Pass { executions };
        }
    }
}

/// Run `executions` random interleavings of `model` (SplitMix64
/// streams derived from `rng_seed`). Violations still carry an exact
/// replay seed. A clean pass here is evidence, not proof.
pub fn explore_random(
    cfg: Config,
    rng_seed: u64,
    executions: usize,
    model: impl Fn() + Sync,
) -> Outcome {
    for i in 0..executions {
        let chooser: Arc<StdMutex<dyn Chooser>> = Arc::new(StdMutex::new(RandomChooser::new(
            rng_seed.wrapping_add(i as u64),
        ))) as _;
        let result = rt::run_once(&model, chooser, cfg);
        if let Some(failure) = result.failure {
            return Outcome::Violation(Violation {
                message: failure.message,
                seed: encode_seed(&failure.schedule),
                executions: i + 1,
            });
        }
    }
    Outcome::Pass { executions }
}

/// Re-run `model` under the exact interleaving `seed` encodes.
/// Returns the failure message if the violation reproduces, `None` if
/// the execution completes cleanly.
pub fn replay(cfg: Config, seed: &str, model: impl Fn() + Sync) -> Option<String> {
    let seq = match decode_seed(seed) {
        Ok(seq) => seq,
        Err(msg) => return Some(msg),
    };
    let chooser: Arc<StdMutex<dyn Chooser>> =
        Arc::new(StdMutex::new(ReplayChooser { seq, cursor: 0 })) as _;
    rt::run_once(&model, chooser, cfg)
        .failure
        .map(|f| f.message)
}

/// Exhaustively check `model`, panicking (for use in `#[test]`s) on a
/// violation — with the replay seed in the message — or on a blown
/// exploration bound. Returns the number of interleavings explored.
pub fn check(name: &str, cfg: Config, model: impl Fn() + Sync) -> usize {
    match explore(cfg, model) {
        Outcome::Pass { executions } => executions,
        Outcome::Violation(v) => panic!(
            "model {name:?} violated after {} interleavings:\n  {}\n  replay seed: {}\n  \
             (isi_check::explore::replay(cfg, {:?}, model) reproduces it)",
            v.executions, v.message, v.seed, v.seed
        ),
        Outcome::BoundExceeded { executions } => panic!(
            "model {name:?} exceeded the exploration bound ({executions} executions): \
             shrink the model or raise Config::max_executions"
        ),
    }
}
