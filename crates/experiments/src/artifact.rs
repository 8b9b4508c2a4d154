//! Machine-readable sweep artifacts (`BENCH_<id>.json`).
//!
//! Every sweep the engine runs can be serialized to a small JSON record —
//! per-run IPC, MPKI (false negatives and false positives), simulated
//! wall-clock, worker count, budget, and the repository's `git describe`
//! — so the performance trajectory of the repo is data, not prose. The
//! experiment binary drops one `BENCH_<id>.json` per experiment id and CI
//! uploads them as build artifacts.
//!
//! The writer is in-tree (the build environment has no crates.io access,
//! so there is no `serde`): [`JsonValue`] covers exactly the subset these
//! records need, with correct string escaping and `null` for non-finite
//! floats.

use crate::jsonio::{opt_f64, req_f64, req_str, req_u64, req_u64_array};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A JSON value, sufficient for the sweep artifacts.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float (serialized as `null` when not finite).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON (2-space indent, one
    /// field per line — the `BENCH_*.json` layout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Renders the value as compact single-line JSON — the line format
    /// of the journal and of the `phast-serve` wire, and the digest base
    /// for per-record CRCs.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Float(_) => out.push_str("null"),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    }
                    item.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    }
                    write_escaped(out, k);
                    out.push_str(if pretty { ": " } else { ":" });
                    v.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Sampling metadata for a run whose statistics were *estimated* from
/// detailed windows (see `phast-sample` and `docs/SAMPLING.md`) rather
/// than measured over the whole horizon. `None` on a [`RunRecord`] means
/// the run was full-detail.
#[derive(Clone, Debug)]
pub struct SamplingMeta {
    /// Detailed windows that produced a measurement.
    pub windows: usize,
    /// Instructions measured cycle-accurately per window.
    pub window_insts: u64,
    /// Instructions of microarchitectural warming per window.
    pub warm_insts: u64,
    /// Total instructions measured cycle-accurately.
    pub measured_insts: u64,
    /// Total instructions spent in warm phases.
    pub warmed_insts: u64,
    /// Instructions covered only by functional fast-forward.
    pub fast_forwarded_insts: u64,
    /// The instruction horizon the sample represents.
    pub horizon: u64,
    /// Half-width of the 95% confidence interval on the per-window IPC
    /// mean.
    pub ipc_ci_half: f64,
    /// Full-detail IPC of the same (workload, predictor) pair, when a
    /// validation pass measured it.
    pub full_ipc: Option<f64>,
    /// `|sampled IPC − full IPC|`, when a validation pass measured it.
    pub ipc_error: Option<f64>,
    /// Sampling mode: `"stride"` (uniform windows, v1 behavior) or
    /// `"phase"` (clustered representatives, `docs/SAMPLING.md` §v2).
    pub mode: String,
    /// Per-cluster weights (interval member counts) in cluster order.
    /// Empty for stride mode.
    pub cluster_weights: Vec<u64>,
    /// Representative checkpoint index per cluster, parallel to
    /// `cluster_weights`. Empty for stride mode.
    pub cluster_representatives: Vec<u64>,
}

impl SamplingMeta {
    pub(crate) fn to_json(&self) -> JsonValue {
        let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Float);
        JsonValue::obj(vec![
            ("windows", JsonValue::UInt(self.windows as u64)),
            ("window_insts", JsonValue::UInt(self.window_insts)),
            ("warm_insts", JsonValue::UInt(self.warm_insts)),
            ("measured_insts", JsonValue::UInt(self.measured_insts)),
            ("warmed_insts", JsonValue::UInt(self.warmed_insts)),
            ("fast_forwarded_insts", JsonValue::UInt(self.fast_forwarded_insts)),
            ("horizon", JsonValue::UInt(self.horizon)),
            ("ipc_ci_half", JsonValue::Float(self.ipc_ci_half)),
            ("full_ipc", opt(self.full_ipc)),
            ("ipc_error", opt(self.ipc_error)),
            ("mode", JsonValue::Str(self.mode.clone())),
            (
                "cluster_weights",
                JsonValue::Array(self.cluster_weights.iter().map(|&w| JsonValue::UInt(w)).collect()),
            ),
            (
                "cluster_representatives",
                JsonValue::Array(
                    self.cluster_representatives.iter().map(|&r| JsonValue::UInt(r)).collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json), for journal replay.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub(crate) fn from_json(v: &JsonValue) -> Result<SamplingMeta, String> {
        let u = |k: &str| req_u64(v, k);
        let f = |k: &str| req_f64(v, k);
        Ok(SamplingMeta {
            windows: u("windows")? as usize,
            window_insts: u("window_insts")?,
            warm_insts: u("warm_insts")?,
            measured_insts: u("measured_insts")?,
            warmed_insts: u("warmed_insts")?,
            fast_forwarded_insts: u("fast_forwarded_insts")?,
            horizon: u("horizon")?,
            ipc_ci_half: f("ipc_ci_half")?,
            full_ipc: opt_f64(v, "full_ipc")?,
            ipc_error: opt_f64(v, "ipc_error")?,
            mode: req_str(v, "mode")?,
            cluster_weights: req_u64_array(v, "cluster_weights")?,
            cluster_representatives: req_u64_array(v, "cluster_representatives")?,
        })
    }
}

/// One row of the sweep's run log: everything the perf trajectory needs
/// about a single (workload, predictor) simulation.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Memory-order violations (MDP false negatives) per kilo-instruction.
    pub violation_mpki: f64,
    /// False dependences (MDP false positives) per kilo-instruction.
    pub false_dep_mpki: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Paths tracked (unlimited predictors; 0 for table-based ones).
    pub num_paths: u64,
    /// Host wall-clock seconds this run took to simulate.
    pub wall_s: f64,
    /// Simulation throughput in committed mega-instructions per host
    /// second (`committed / wall_s / 1e6`); 0 when the run took no
    /// measurable time.
    pub mips: f64,
    /// Always 1, since a cell runs once; the field stays in the artifact
    /// format, which the benchmark package writes too.
    pub attempts: u64,
    /// The degradation message if the run failed, `None` if it ran clean.
    pub degraded: Option<String>,
    /// Sampling metadata when this run was estimated from detailed
    /// windows; `None` for a full-detail run.
    pub sampling: Option<SamplingMeta>,
    /// Digest of the workload's static dependence signature
    /// (`phast_trace::DepSignature::digest`); `"unknown"` when the run
    /// degraded before its program was built. Deterministic for a given
    /// program, so it participates in artifact byte-identity checks.
    pub workload_signature: String,
}

impl RunRecord {
    pub(crate) fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("workload", JsonValue::Str(self.workload.clone())),
            ("predictor", JsonValue::Str(self.predictor.clone())),
            ("ipc", JsonValue::Float(self.ipc)),
            ("violation_mpki", JsonValue::Float(self.violation_mpki)),
            ("false_dep_mpki", JsonValue::Float(self.false_dep_mpki)),
            ("cycles", JsonValue::UInt(self.cycles)),
            ("committed", JsonValue::UInt(self.committed)),
            ("num_paths", JsonValue::UInt(self.num_paths)),
            ("wall_s", JsonValue::Float(self.wall_s)),
            ("mips", JsonValue::Float(self.mips)),
            ("attempts", JsonValue::UInt(self.attempts)),
            (
                "degraded",
                match &self.degraded {
                    Some(msg) => JsonValue::Str(msg.clone()),
                    None => JsonValue::Null,
                },
            ),
            (
                "sampling",
                match &self.sampling {
                    Some(meta) => meta.to_json(),
                    None => JsonValue::Null,
                },
            ),
            ("workload_signature", JsonValue::Str(self.workload_signature.clone())),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json): reconstructs the record a
    /// journal `done` line embedded, so a resumed sweep can replay
    /// completed runs without re-simulating them.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub(crate) fn from_json(v: &JsonValue) -> Result<RunRecord, String> {
        let degraded = match v.get("degraded") {
            None => return Err("missing 'degraded'".to_string()),
            Some(x) if x.is_null() => None,
            Some(x) => Some(
                x.as_str().map(str::to_string).ok_or_else(|| "non-string 'degraded'".to_string())?,
            ),
        };
        let sampling = match v.get("sampling") {
            None => return Err("missing 'sampling'".to_string()),
            Some(x) if x.is_null() => None,
            Some(x) => Some(SamplingMeta::from_json(x)?),
        };
        Ok(RunRecord {
            workload: req_str(v, "workload")?,
            predictor: req_str(v, "predictor")?,
            ipc: req_f64(v, "ipc")?,
            violation_mpki: req_f64(v, "violation_mpki")?,
            false_dep_mpki: req_f64(v, "false_dep_mpki")?,
            cycles: req_u64(v, "cycles")?,
            committed: req_u64(v, "committed")?,
            num_paths: req_u64(v, "num_paths")?,
            wall_s: req_f64(v, "wall_s")?,
            mips: req_f64(v, "mips")?,
            attempts: req_u64(v, "attempts")?,
            degraded,
            sampling,
            workload_signature: req_str(v, "workload_signature")?,
        })
    }
}

/// The machine-readable record of one whole sweep, written as
/// `BENCH_<id>.json`.
#[derive(Clone, Debug)]
pub struct SweepArtifact {
    /// Experiment id (`fig15`, `ablations`, ...).
    pub id: String,
    /// `git describe --always --dirty` of the tree that produced the data.
    pub git: String,
    /// Worker threads the sweep ran with (1 = serial).
    pub workers: usize,
    /// Instruction budget per run.
    pub budget_insts: u64,
    /// Workload outer-loop iterations.
    pub budget_iters: u64,
    /// Number of workloads the budget covered.
    pub workloads: usize,
    /// End-to-end host wall-clock seconds for the sweep.
    pub wall_s: f64,
    /// Every simulation run, in deterministic matrix order.
    pub runs: Vec<RunRecord>,
    /// Degraded-run descriptions, in matrix order.
    pub degraded: Vec<String>,
}

impl SweepArtifact {
    /// Aggregate simulation throughput: total committed instructions of
    /// clean runs divided by their summed per-run host wall-clock, in
    /// millions per second. The per-run walls are used (not the sweep
    /// wall) so the figure is comparable between serial and parallel
    /// sweeps.
    pub fn simulated_mips(&self) -> f64 {
        let clean = self.runs.iter().filter(|r| r.degraded.is_none());
        let (committed, wall_s) = clean
            .fold((0u64, 0.0f64), |(c, w), r| (c + r.committed, w + r.wall_s));
        if wall_s > 0.0 {
            committed as f64 / wall_s / 1e6
        } else {
            0.0
        }
    }

    /// The artifact as a [`JsonValue`], *without* the `digest` field.
    fn to_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("id", JsonValue::Str(self.id.clone())),
            ("git", JsonValue::Str(self.git.clone())),
            ("workers", JsonValue::UInt(self.workers as u64)),
            (
                "budget",
                JsonValue::obj(vec![
                    ("insts", JsonValue::UInt(self.budget_insts)),
                    ("workload_iters", JsonValue::UInt(self.budget_iters)),
                    ("workloads", JsonValue::UInt(self.workloads as u64)),
                ]),
            ),
            ("wall_s", JsonValue::Float(self.wall_s)),
            ("simulated_mips", JsonValue::Float(self.simulated_mips())),
            ("runs", JsonValue::Array(self.runs.iter().map(RunRecord::to_json).collect())),
            (
                "degraded",
                JsonValue::Array(self.degraded.iter().cloned().map(JsonValue::Str).collect()),
            ),
        ])
    }

    /// Renders the artifact as JSON, sealed with a trailing `digest`
    /// field: the CRC32 of the document rendered *without* that field.
    /// [`verify_json`](Self::verify_json) checks it by reconstruction —
    /// parse, drop `digest`, re-render, re-hash — which is exact because
    /// the renderer/parser pair round-trips writer output byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut v = self.to_value();
        let digest = phast_sample::crc32(Self::digest_base(&v).as_bytes());
        if let JsonValue::Object(fields) = &mut v {
            fields.push(("digest".to_string(), JsonValue::Str(format!("crc32:{digest:08x}"))));
        }
        let mut out = v.render();
        out.push('\n');
        out
    }

    /// The artifact's integrity digest (`crc32:xxxxxxxx`) — identical to
    /// the `digest` field [`to_json`](Self::to_json) seals the rendered
    /// document with. `phast-serve` indexes finished artifacts by this
    /// digest so clients can fetch results content-addressed after a
    /// disconnect.
    pub fn digest(&self) -> String {
        let v = self.to_value();
        format!("crc32:{:08x}", phast_sample::crc32(Self::digest_base(&v).as_bytes()))
    }

    /// The exact byte string the `digest` field hashes: the pretty render
    /// of the document without `digest`, plus the trailing newline.
    fn digest_base(v: &JsonValue) -> String {
        let mut s = v.render();
        s.push('\n');
        s
    }

    /// Verifies the integrity digest of a rendered artifact.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Parse`] if `text` is not valid JSON,
    /// [`ArtifactError::MissingDigest`] if it carries no `digest` field,
    /// [`ArtifactError::DigestMismatch`] if the recomputed CRC32 differs —
    /// the file was edited, truncated, or corrupted after it was written.
    pub fn verify_json(text: &str) -> Result<(), ArtifactError> {
        let mut v = crate::jsonio::parse(text).map_err(ArtifactError::Parse)?;
        let digest = v.remove("digest");
        let stored = match digest.as_ref().and_then(JsonValue::as_str) {
            Some(s) => s.to_string(),
            None => return Err(ArtifactError::MissingDigest),
        };
        let computed = format!("crc32:{:08x}", phast_sample::crc32(Self::digest_base(&v).as_bytes()));
        if computed != stored {
            return Err(ArtifactError::DigestMismatch { computed, stored });
        }
        Ok(())
    }

    /// [`verify_json`](Self::verify_json) over a file on disk.
    ///
    /// # Errors
    ///
    /// As for `verify_json`, plus [`ArtifactError::Io`].
    pub fn verify_file(path: &Path) -> Result<(), ArtifactError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))?;
        Self::verify_json(&text)
    }

    /// The artifact's file name: `BENCH_<id>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.id)
    }

    /// Writes `BENCH_<id>.json` into `dir` (created if missing) and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Why a `BENCH_*.json` artifact failed integrity verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file could not be read.
    Io(String),
    /// The file is not valid JSON.
    Parse(crate::jsonio::JsonParseError),
    /// The file parses but carries no `digest` field (written by an older
    /// build, or stripped) — fail closed rather than assume it is intact.
    MissingDigest,
    /// The recomputed digest differs from the stored one.
    DigestMismatch {
        /// Digest recomputed from the file contents.
        computed: String,
        /// Digest the file claims.
        stored: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact unreadable: {e}"),
            ArtifactError::Parse(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::MissingDigest => write!(f, "artifact has no integrity digest"),
            ArtifactError::DigestMismatch { computed, stored } => write!(
                f,
                "artifact integrity failure: recomputed {computed} != stored {stored}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            predictor: "phast".into(),
            ipc: 3.25,
            violation_mpki: 0.5,
            false_dep_mpki: 0.25,
            cycles: 1000,
            committed: 3250,
            num_paths: 0,
            wall_s: 0.125,
            mips: 3250.0 / 0.125 / 1e6,
            attempts: 1,
            degraded: None,
            sampling: None,
            workload_signature: "phtr:00000000".into(),
        }
    }

    #[test]
    fn sampling_metadata_serializes_when_present() {
        let mut r = record("mcf");
        r.sampling = Some(SamplingMeta {
            windows: 8,
            window_insts: 1_000,
            warm_insts: 2_000,
            measured_insts: 8_000,
            warmed_insts: 16_000,
            fast_forwarded_insts: 276_000,
            horizon: 300_000,
            ipc_ci_half: 0.04,
            full_ipc: Some(3.2),
            ipc_error: Some(0.05),
            mode: "phase".into(),
            cluster_weights: vec![5, 3],
            cluster_representatives: vec![2, 6],
        });
        let s = r.to_json().render();
        for needle in [
            "\"windows\": 8",
            "\"fast_forwarded_insts\": 276000",
            "\"full_ipc\": 3.2",
            "\"mode\": \"phase\"",
            "\"cluster_weights\"",
            "\"cluster_representatives\"",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
        assert!(record("mcf").to_json().render().contains("\"sampling\": null"));
    }

    #[test]
    fn json_escaping_and_non_finite_floats() {
        let v = JsonValue::obj(vec![
            ("s", JsonValue::Str("a\"b\\c\nd\u{1}".into())),
            ("nan", JsonValue::Float(f64::NAN)),
            ("inf", JsonValue::Float(f64::INFINITY)),
        ]);
        let s = v.render();
        assert!(s.contains(r#""a\"b\\c\nd\u0001""#), "{s}");
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"inf\": null"));
    }

    #[test]
    fn artifact_round_trip_shape() {
        let a = SweepArtifact {
            id: "fig15".into(),
            git: "abc1234-dirty".into(),
            workers: 8,
            budget_insts: 300_000,
            budget_iters: 1_000_000,
            workloads: 23,
            wall_s: 12.5,
            runs: vec![record("gcc_1"), record("mcf")],
            degraded: vec!["gcc_1 × blind: deadlock".into()],
        };
        assert_eq!(a.file_name(), "BENCH_fig15.json");
        let s = a.to_json();
        for needle in
            ["\"id\": \"fig15\"", "\"workers\": 8", "\"insts\": 300000", "\"gcc_1\"", "deadlock"]
        {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
        // Exactly one run object per record.
        assert_eq!(s.matches("\"predictor\"").count(), 2);
    }

    #[test]
    fn simulated_mips_aggregates_clean_runs_only() {
        let mut bad = record("mcf");
        bad.degraded = Some("mcf × phast: deadlock".into());
        let a = SweepArtifact {
            id: "fig15".into(),
            git: "abc1234".into(),
            workers: 1,
            budget_insts: 300_000,
            budget_iters: 1_000_000,
            workloads: 2,
            wall_s: 0.5,
            runs: vec![record("gcc_1"), record("gcc_2"), bad],
            degraded: vec![],
        };
        // Two clean runs: (3250 + 3250) / (0.125 + 0.125) / 1e6.
        let expect = 6500.0 / 0.25 / 1e6;
        assert!((a.simulated_mips() - expect).abs() < 1e-12, "{}", a.simulated_mips());
        assert!(a.to_json().contains("\"simulated_mips\""));
        assert!(a.to_json().contains("\"mips\""));
    }

    #[test]
    fn simulated_mips_is_zero_without_runs() {
        let a = SweepArtifact {
            id: "empty".into(),
            git: "unknown".into(),
            workers: 1,
            budget_insts: 1,
            budget_iters: 1,
            workloads: 0,
            wall_s: 0.0,
            runs: vec![],
            degraded: vec![],
        };
        assert_eq!(a.simulated_mips(), 0.0);
    }

    #[test]
    fn artifact_writes_to_disk() {
        let dir = std::env::temp_dir().join("phast-artifact-test");
        let a = SweepArtifact {
            id: "smoke".into(),
            git: "unknown".into(),
            workers: 1,
            budget_insts: 1,
            budget_iters: 1,
            workloads: 0,
            wall_s: 0.0,
            runs: vec![],
            degraded: vec![],
        };
        let path = a.write_to(&dir).expect("writes");
        let body = std::fs::read_to_string(&path).expect("reads back");
        assert!(body.contains("\"id\": \"smoke\""));
        assert!(body.ends_with('\n'));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn git_describe_never_panics() {
        assert!(!git_describe().is_empty());
    }

    fn artifact() -> SweepArtifact {
        SweepArtifact {
            id: "fig15".into(),
            git: "abc1234".into(),
            workers: 4,
            budget_insts: 300_000,
            budget_iters: 1_000_000,
            workloads: 2,
            wall_s: 1.5,
            runs: vec![record("gcc_1"), record("mcf")],
            degraded: vec![],
        }
    }

    #[test]
    fn digest_verifies_and_catches_corruption() {
        let text = artifact().to_json();
        assert!(text.contains("\"digest\": \"crc32:"), "{text}");
        SweepArtifact::verify_json(&text).expect("freshly rendered artifact verifies");

        // Any content edit breaks it.
        let tampered = text.replace("\"workers\": 4", "\"workers\": 5");
        assert!(matches!(
            SweepArtifact::verify_json(&tampered),
            Err(ArtifactError::DigestMismatch { .. })
        ));

        // A missing digest fails closed.
        let mut v = crate::jsonio::parse(&text).unwrap();
        v.remove("digest");
        let stripped = v.render();
        assert_eq!(SweepArtifact::verify_json(&stripped), Err(ArtifactError::MissingDigest));

        // Garbage is a parse error, not a panic.
        assert!(matches!(
            SweepArtifact::verify_json("not json"),
            Err(ArtifactError::Parse(_))
        ));
    }

    #[test]
    fn verify_file_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("phast-artifact-verify-test");
        let path = artifact().write_to(&dir).expect("writes");
        SweepArtifact::verify_file(&path).expect("on-disk artifact verifies");

        // Flip one byte in the middle of the file: rejected.
        let mut bytes = std::fs::read(&path).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).expect("rewrites");
        assert!(SweepArtifact::verify_file(&path).is_err());
        let _ = std::fs::remove_file(&path);

        assert!(matches!(
            SweepArtifact::verify_file(Path::new("/nonexistent/bench.json")),
            Err(ArtifactError::Io(_))
        ));
    }

    #[test]
    fn run_record_json_round_trips() {
        let mut r = record("mcf");
        r.attempts = 3;
        r.degraded = Some("mcf × phast: deadlock".into());
        r.sampling = Some(SamplingMeta {
            windows: 8,
            window_insts: 1_000,
            warm_insts: 2_000,
            measured_insts: 8_000,
            warmed_insts: 16_000,
            fast_forwarded_insts: 276_000,
            horizon: 300_000,
            ipc_ci_half: 0.04,
            full_ipc: Some(3.2),
            ipc_error: None,
            mode: "stride".into(),
            cluster_weights: Vec::new(),
            cluster_representatives: Vec::new(),
        });
        for rec in [record("gcc_1"), r] {
            let v = rec.to_json();
            let text = v.render_compact();
            let back = RunRecord::from_json(&crate::jsonio::parse(&text).unwrap())
                .expect("record reconstructs");
            assert_eq!(
                back.to_json().render_compact(),
                text,
                "reconstructed record re-renders byte-identically"
            );
        }
    }
}
