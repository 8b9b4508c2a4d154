//! Write-ahead run journal: crash-resilient sweep state on disk.
//!
//! A sweep writes one JSONL line to `journal.jsonl` *before* it starts
//! each run (`start`) and one as each run finishes (`done`), flushed
//! immediately — so after a crash, a kill, or a power cut, the journal
//! holds the exact set of completed runs. A cell's key (see
//! [`cell_key`](crate::harness::cell_key)) is its only identity: with the
//! header's fingerprint it fixes the simulation, whichever experiment or
//! daemon submission runs it. So a journal replays every cell it holds
//! as `ok`, those it recovered on `--resume` and those it journaled
//! since, to every later sweep on it: the cell is rebuilt from its
//! embedded [`RunRecord`] plus the counters a figure reads beyond the
//! record (table reads/writes for Fig. 16, conditional-branch
//! mispredictions for Fig. 1, conflict lengths for Fig. 10), and its
//! reports and `BENCH_*.json` rows match a live run's (modulo wall-clock
//! metadata, a property of the execution that journaled it).
//!
//! Integrity is fail-closed: every `done` line carries a CRC32 digest of
//! everything it replays; a digest mismatch or an unparseable line in the
//! *interior* of the journal is a typed [`JournalError`] (the journal is
//! evidence — if it cannot be trusted, resuming from it silently would
//! corrupt the aggregate). The one tolerated defect is a torn **final**
//! line, which is exactly what a crash mid-write produces: a resume skips
//! it and cuts it off the file before appending, so the next line starts
//! on a line boundary and the journal can be resumed again.
//!
//! Line shapes (all compact JSON, one per line):
//!
//! ```text
//! {"kind":"header","version":4,"fingerprint":"insts=...,..."}
//! {"kind":"start","key":"mcf|phast|1a2b3c4d|300000","seed":7}
//! {"kind":"done","key":"...","status":"ok","digest":"crc32:...",
//!  "reads":9494,"writes":180,"branch_mispredicts":412,"path_lengths":[],"record":{...}}
//! ```
//!
//! (The `done` line is one line on disk.) The `fingerprint` pins the
//! sweep shape (budget, workload count, sampling mode); resuming under a
//! different configuration is refused — mixing records from
//! differently-shaped sweeps would produce an aggregate no single
//! configuration ever ran. A journal of another version is refused too:
//! an older `done` line lacks fields a replay restores (version 1 the
//! predictor state, version 2 the branch mispredictions), and a
//! version-3 key starts with the experiment id.

use crate::artifact::{JsonValue, RunRecord};
use crate::jsonio::{self, req_str, req_u64, req_u64_array};
use phast_mdp::AccessStats;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Journal format version.
const VERSION: u64 = 4;

/// Why a journal could not be created or resumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure.
    Io(String),
    /// A line in the journal's interior is unparseable, mistyped, or
    /// fails its record digest. `line` is 1-based.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal was written by a sweep with a different shape.
    FingerprintMismatch {
        /// Fingerprint of the sweep trying to resume.
        expected: String,
        /// Fingerprint stored in the journal.
        found: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failure: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a differently-configured sweep: \
                 expected fingerprint '{expected}', found '{found}'"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A finished run as a `done` line holds it; [`Journal::lookup`]
/// returns the completed (`status == "ok"`) ones.
#[derive(Clone, Debug)]
pub struct CompletedRun {
    /// The run's record, exactly as the original sweep would have
    /// aggregated it.
    pub record: RunRecord,
    /// The predictor's table reads and writes (Fig. 16's energy model).
    pub accesses: AccessStats,
    /// Conditional-branch mispredictions (Fig. 1's branch MPKI).
    pub branch_mispredicts: u64,
    /// Unique conflicts per history length (Fig. 10); empty for every
    /// predictor but UnlimitedPHAST.
    pub path_lengths: Vec<u64>,
}

struct JournalInner {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    completed: Mutex<HashMap<String, CompletedRun>>,
}

/// A shared handle to the run journal. Cheap to clone; writes are
/// serialized through an internal lock and flushed per line (write-ahead:
/// a line is on disk before the work it describes is trusted). Every
/// sweep given a clone shares its cells: a cell one sweep journals as
/// `ok` replays in every later sweep on the same journal.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.inner.path)
            .field("completed", &self.completed_runs())
            .finish()
    }
}

impl Journal {
    /// Creates (truncating) `journal.jsonl` at `path` and writes the
    /// header line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, fingerprint: &str) -> Result<Journal, JournalError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(path, &e))?;
            }
        }
        let mut file = std::fs::File::create(path).map_err(|e| io_err(path, &e))?;
        let header = JsonValue::obj(vec![
            ("kind", JsonValue::Str("header".to_string())),
            ("version", JsonValue::UInt(VERSION)),
            ("fingerprint", JsonValue::Str(fingerprint.to_string())),
        ]);
        write_line(&mut file, &header).map_err(|e| io_err(path, &e))?;
        Ok(Journal::open(file, path, HashMap::new()))
    }

    /// Opens an existing journal for resumption: validates every line,
    /// recovers the completed-run map, and reopens the file for
    /// appending. A torn final line (crash mid-write: unterminated or
    /// unparseable) is tolerated and cut off the file, so the next append
    /// starts a line of its own — everything before it must be intact.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file is unreadable,
    /// [`JournalError::FingerprintMismatch`] if it belongs to a sweep
    /// with a different shape, [`JournalError::Corrupt`] on any interior
    /// defect — fail closed; a journal that cannot be trusted end to end
    /// is not resumed from.
    pub fn resume(path: &Path, fingerprint: &str) -> Result<Journal, JournalError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        // (1-based line number, byte offset of the line, the line with
        // its terminator, if any).
        let mut offset = 0;
        let lines: Vec<(usize, usize, &str)> = text
            .split_inclusive('\n')
            .enumerate()
            .map(|(i, l)| {
                offset += l.len();
                (i + 1, offset - l.len(), l)
            })
            .filter(|(.., l)| !l.trim().is_empty())
            .collect();
        let last_idx = lines.len().saturating_sub(1);
        let mut completed = HashMap::new();
        let mut torn_at = None;
        let mut saw_header = false;
        for (pos, &(line_no, at, raw)) in lines.iter().enumerate() {
            let parsed = jsonio::parse(raw.trim());
            if pos == last_idx && pos > 0 && (parsed.is_err() || !raw.ends_with('\n')) {
                // A crash mid-append leaves exactly one torn final line;
                // everything it described was never trusted.
                torn_at = Some(at);
                continue;
            }
            let corrupt = |reason: String| JournalError::Corrupt { line: line_no, reason };
            let v = parsed.map_err(|e| corrupt(e.to_string()))?;
            let kind = req_str(&v, "kind").map_err(corrupt)?;
            if pos == 0 {
                if kind != "header" {
                    return Err(corrupt("first line is not a header".to_string()));
                }
                let version = v.get("version").and_then(JsonValue::as_u64);
                if version != Some(VERSION) {
                    return Err(corrupt(format!("unsupported journal version {version:?}")));
                }
                let found = req_str(&v, "fingerprint").map_err(corrupt)?;
                if found != fingerprint {
                    return Err(JournalError::FingerprintMismatch {
                        expected: fingerprint.to_string(),
                        found,
                    });
                }
                saw_header = true;
                continue;
            }
            match kind.as_str() {
                "start" => {
                    // Start lines witness that a run began; only done
                    // lines carry results, so nothing to recover here.
                }
                "done" => {
                    let bad = |e: String| corrupt(format!("bad done line: {e}"));
                    let key = req_str(&v, "key").map_err(bad)?;
                    let status = req_str(&v, "status").map_err(bad)?;
                    let stored = req_str(&v, "digest").map_err(bad)?;
                    let field = |k: &str| {
                        v.get(k).ok_or_else(|| corrupt(format!("done line missing '{k}'")))
                    };
                    let payload = [
                        field("reads")?,
                        field("writes")?,
                        field("branch_mispredicts")?,
                        field("path_lengths")?,
                        field("record")?,
                    ];
                    let computed = payload_digest(payload);
                    if computed != stored {
                        return Err(corrupt(format!(
                            "digest mismatch: recomputed {computed} != stored {stored}"
                        )));
                    }
                    if status == "ok" {
                        let done = CompletedRun {
                            record: RunRecord::from_json(payload[4]).map_err(bad)?,
                            accesses: AccessStats {
                                reads: req_u64(&v, "reads").map_err(bad)?,
                                writes: req_u64(&v, "writes").map_err(bad)?,
                            },
                            branch_mispredicts: req_u64(&v, "branch_mispredicts").map_err(bad)?,
                            path_lengths: req_u64_array(&v, "path_lengths").map_err(bad)?,
                        };
                        completed.insert(key, done);
                    }
                    // Degraded runs re-execute: a deadline cut may not
                    // recur — never skip them.
                }
                other => return Err(corrupt(format!("unknown line kind '{other}'"))),
            }
        }
        if !saw_header {
            return Err(JournalError::Corrupt {
                line: 1,
                reason: "journal has no header line".to_string(),
            });
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        if let Some(at) = torn_at {
            file.set_len(at as u64).map_err(|e| io_err(path, &e))?;
        }
        Ok(Journal::open(file, path, completed))
    }

    fn open(file: std::fs::File, path: &Path, completed: HashMap<String, CompletedRun>) -> Journal {
        Journal {
            inner: Arc::new(JournalInner {
                file: Mutex::new(file),
                path: path.to_path_buf(),
                completed: Mutex::new(completed),
            }),
        }
    }

    /// Cells the journal holds as `ok`: those recovered at
    /// [`resume`](Self::resume) plus those journaled since.
    pub fn completed_runs(&self) -> usize {
        self.completed().len()
    }

    /// Ignored: a cell's key is its only identity, so this returns the
    /// journal itself. The method outlives the experiment-scoped keys
    /// only because the benchmark package's batch set-up (`setup_sweep`
    /// in `simbench/src/grid.rs`) still calls `journal.scope("fig15")`;
    /// delete it once that call passes the journal as is.
    pub fn scope(&self, _exp: &str) -> Journal {
        self.clone()
    }

    /// The completed run for `key`, if the journal holds one as `ok` —
    /// the caller replays its record instead of re-simulating.
    pub fn lookup(&self, key: &str) -> Option<CompletedRun> {
        self.completed().get(key).cloned()
    }

    /// Journals that `key` is about to run with fault seed `seed`
    /// (write-ahead: on disk before the run starts).
    pub fn log_start(&self, key: &str, seed: u64) {
        self.append(&JsonValue::obj(vec![
            ("kind", JsonValue::Str("start".to_string())),
            ("key", JsonValue::Str(key.to_string())),
            ("seed", JsonValue::UInt(seed)),
        ]));
    }

    /// Journals that `key` finished with `status` (`"ok"` or a failure
    /// kind), embedding the run and its digest. From then on an `ok` run
    /// is what [`lookup`](Self::lookup) returns for `key`.
    pub fn log_done(&self, key: &str, done: CompletedRun, status: &str) {
        let reads = JsonValue::UInt(done.accesses.reads);
        let writes = JsonValue::UInt(done.accesses.writes);
        let branch_mispredicts = JsonValue::UInt(done.branch_mispredicts);
        let lengths =
            JsonValue::Array(done.path_lengths.iter().map(|&n| JsonValue::UInt(n)).collect());
        let record = done.record.to_json();
        let digest = payload_digest([&reads, &writes, &branch_mispredicts, &lengths, &record]);
        self.append(&JsonValue::obj(vec![
            ("kind", JsonValue::Str("done".to_string())),
            ("key", JsonValue::Str(key.to_string())),
            ("status", JsonValue::Str(status.to_string())),
            ("digest", JsonValue::Str(digest)),
            ("reads", reads),
            ("writes", writes),
            ("branch_mispredicts", branch_mispredicts),
            ("path_lengths", lengths),
            ("record", record),
        ]));
        if status == "ok" {
            self.completed().insert(key.to_string(), done);
        }
    }

    fn completed(&self) -> MutexGuard<'_, HashMap<String, CompletedRun>> {
        self.inner.completed.lock().expect("journal completed-run map")
    }

    fn append(&self, v: &JsonValue) {
        let mut file = self.inner.file.lock().expect("journal file lock");
        // A journal write failure must not take down the sweep it exists
        // to protect; the warning names the path so the operator knows
        // resume coverage stops here.
        if let Err(e) = write_line(&mut file, v) {
            crate::diag!("warning: journal write failed ({}): {e}", self.inner.path.display());
        }
    }
}

/// The digest stored on `done` lines: CRC32 of the comma-joined compact
/// renderings of everything a replay restores (`reads`, `writes`,
/// `branch_mispredicts`, `path_lengths`, `record`), recomputed over the
/// same bytes on resume.
fn payload_digest(payload: [&JsonValue; 5]) -> String {
    let text = payload.map(JsonValue::render_compact).join(",");
    format!("crc32:{:08x}", phast_sample::crc32(text.as_bytes()))
}

fn io_err(path: &Path, e: &dyn std::fmt::Display) -> JournalError {
    JournalError::Io(format!("{}: {e}", path.display()))
}

fn write_line(file: &mut std::fs::File, v: &JsonValue) -> std::io::Result<()> {
    let mut line = v.render_compact();
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(workload: &str, ipc: f64) -> CompletedRun {
        CompletedRun {
            record: record(workload, ipc),
            accesses: AccessStats { reads: 40, writes: 9 },
            branch_mispredicts: 17,
            path_lengths: vec![0, 3, 1],
        }
    }

    fn record(workload: &str, ipc: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            predictor: "phast".into(),
            ipc,
            violation_mpki: 0.5,
            false_dep_mpki: 0.25,
            cycles: 1000,
            committed: 3250,
            num_paths: 0,
            wall_s: 0.125,
            mips: 26.0,
            attempts: 1,
            degraded: None,
            sampling: None,
            workload_signature: "phtr:00000000".into(),
        }
    }

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("phast-journal-tests");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn create_log_resume_roundtrip() {
        let path = temp_journal("roundtrip");
        let j = Journal::create(&path, "fp-1").expect("creates");
        j.log_start("mcf|phast|deadbeef|300000", 7);
        j.log_done("mcf|phast|deadbeef|300000", done("mcf", 3.25), "ok");
        j.log_start("gcc|phast|deadbeef|300000", 7);
        j.log_done("gcc|phast|deadbeef|300000", done("gcc", 2.0), "deadlock");
        drop(j);

        let r = Journal::resume(&path, "fp-1").expect("resumes");
        assert_eq!(r.completed_runs(), 1, "only ok runs are recovered");
        let hit = r.lookup("mcf|phast|deadbeef|300000").expect("ok run recovered");
        assert_eq!(hit.record.workload, "mcf");
        assert_eq!(hit.record.ipc, 3.25);
        assert_eq!(hit.accesses, AccessStats { reads: 40, writes: 9 });
        assert_eq!(hit.branch_mispredicts, 17);
        assert_eq!(hit.path_lengths, vec![0, 3, 1]);
        assert!(r.lookup("gcc|phast|deadbeef|300000").is_none(), "degraded runs re-run");
        let _ = std::fs::remove_file(&path);
    }

    /// A journal replays what it journaled this run, not only what a
    /// resume recovered: every later sweep on it finds an `ok` cell.
    #[test]
    fn a_cell_journaled_ok_replays_without_a_resume() {
        let path = temp_journal("live");
        let j = Journal::create(&path, "fp-1").expect("creates");
        assert!(j.lookup("mcf|phast|deadbeef|300000").is_none());
        j.log_start("mcf|phast|deadbeef|300000", 0);
        j.log_done("mcf|phast|deadbeef|300000", done("mcf", 3.25), "ok");
        j.log_start("gcc|phast|deadbeef|300000", 0);
        j.log_done("gcc|phast|deadbeef|300000", done("gcc", 2.0), "deadline");
        let hit = j.lookup("mcf|phast|deadbeef|300000").expect("ok cell found");
        assert_eq!((hit.record.workload.as_str(), hit.record.ipc), ("mcf", 3.25));
        assert_eq!(hit.path_lengths, vec![0, 3, 1]);
        assert!(j.lookup("gcc|phast|deadbeef|300000").is_none(), "degraded cells re-run");
        assert_eq!(j.completed_runs(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let path = temp_journal("torn");
        let j = Journal::create(&path, "fp-1").expect("creates");
        j.log_done("k1", done("mcf", 3.0), "ok");
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let k2 = text.lines().last().unwrap().replace("\"k1\"", "\"k2\"");
        // Torn mid-line, or just before its terminator: either way the
        // line is skipped and cut off, so the journal can be resumed
        // again after appending.
        for torn in [&k2[..k2.len() / 2], &k2] {
            std::fs::write(&path, format!("{text}{torn}")).unwrap();
            let r = Journal::resume(&path, "fp-1").expect("torn tail tolerated");
            assert_eq!(r.completed_runs(), 1);
            assert!(r.lookup("k2").is_none(), "a torn line is never trusted");
            r.log_start("k3", 0);
            r.log_done("k3", done("gcc", 2.0), "ok");
            drop(r);
            let again = Journal::resume(&path, "fp-1").expect("resumes a second time");
            assert_eq!(again.completed_runs(), 2);
            assert_eq!(again.lookup("k3").expect("appended after the cut").record.ipc, 2.0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_corruption_fails_closed() {
        let path = temp_journal("interior");
        let j = Journal::create(&path, "fp-1").expect("creates");
        j.log_done("k1", done("mcf", 3.0), "ok");
        j.log_done("k2", done("gcc", 2.0), "ok");
        drop(j);

        // Flip a byte inside the *first* done line, in its record or in
        // the counters next to it: the digest breaks, and because the
        // line is interior the journal must be refused.
        let text = std::fs::read_to_string(&path).unwrap();
        for (from, to) in [
            ("\"ipc\":3", "\"ipc\":9"),
            ("\"reads\":40", "\"reads\":41"),
            ("\"branch_mispredicts\":17", "\"branch_mispredicts\":18"),
        ] {
            let tampered = text.replacen(from, to, 1);
            assert_ne!(text, tampered);
            std::fs::write(&path, &tampered).unwrap();
            let err = Journal::resume(&path, "fp-1").expect_err("tampered journal refused");
            let JournalError::Corrupt { line, reason } = &err else { panic!("{err}") };
            assert!(*line == 2 && reason.contains("digest"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_one_journals_are_refused() {
        let path = temp_journal("v1");
        drop(Journal::create(&path, "fp-1").expect("creates"));
        let text = std::fs::read_to_string(&path).unwrap();
        for old in ["\"version\":1", "\"version\":2", "\"version\":3"] {
            std::fs::write(&path, text.replacen("\"version\":4", old, 1)).unwrap();
            let err = Journal::resume(&path, "fp-1").expect_err("older journal refused");
            assert!(matches!(err, JournalError::Corrupt { line: 1, .. }), "{old}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = temp_journal("fingerprint");
        drop(Journal::create(&path, "fp-A").expect("creates"));
        let err = Journal::resume(&path, "fp-B").expect_err("mismatch refused");
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_and_empty_journals_are_errors() {
        let missing = temp_journal("missing-nonexistent");
        let _ = std::fs::remove_file(&missing);
        assert!(matches!(Journal::resume(&missing, "fp"), Err(JournalError::Io(_))));

        let empty = temp_journal("empty");
        std::fs::write(&empty, "").unwrap();
        assert!(matches!(Journal::resume(&empty, "fp"), Err(JournalError::Corrupt { .. })));
        let _ = std::fs::remove_file(&empty);
    }
}
