//! Recording traces from the reference emulator and validating them in
//! lockstep against a fresh emulator run.

use crate::codec::{Trace, TraceKind, TraceRecord};
use phast_isa::{Emulator, ExecRecord, Op, Program};
use phast_workloads::Workload;

/// Converts one emulator [`ExecRecord`] into the compact trace form.
fn to_trace_record(program: &Program, rec: &ExecRecord) -> TraceRecord {
    let op = &program.inst(rec.block, rec.index).op;
    let kind = match op {
        Op::Load(_) => TraceKind::Load,
        Op::Store(_) => TraceKind::Store,
        Op::CondBranch { .. } => TraceKind::CondBranch,
        Op::Jump(_) | Op::Call(_) => TraceKind::DirectJump,
        Op::IndirectJump(_) | Op::Ret => TraceKind::IndirectJump,
        Op::Halt => TraceKind::Halt,
        _ => TraceKind::Other,
    };
    TraceRecord {
        kind,
        pc: rec.pc,
        taken: rec.taken,
        eff_addr: rec.eff_addr,
        target_pc: match kind {
            TraceKind::CondBranch | TraceKind::DirectJump | TraceKind::IndirectJump => {
                rec.target_pc
            }
            _ => None,
        },
    }
}

/// Records a PHTR trace by running `workload` on the reference emulator
/// for up to `horizon` instructions, with the program built at `iters`
/// outer-loop iterations.
///
/// The trace embeds the exact program, so any later consumer (replay,
/// sweeps, sampling, the daemon) reconstructs bit-identical state.
///
/// # Panics
///
/// Panics if the emulator faults (a builder-validated workload cannot).
pub fn record_trace(workload: &Workload, iters: u64, horizon: u64) -> Trace {
    let program = workload.build(iters);
    let mut emu = Emulator::new(&program);
    let mut records = Vec::new();
    while (records.len() as u64) < horizon {
        match emu.step().expect("workload emulation cannot fault") {
            Some(rec) => records.push(to_trace_record(&program, &rec)),
            None => break,
        }
    }
    Trace {
        name: workload.name.to_string(),
        description: workload.description.to_string(),
        iters,
        horizon,
        program,
        records,
    }
}

/// A divergence found while replaying a trace against the emulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockstepError {
    /// The emulator halted before the trace's record stream ended.
    EmulatorEndedEarly {
        /// Records the emulator actually produced.
        produced: u64,
        /// Records the trace holds.
        expected: u64,
    },
    /// A record differs from what the emulator retired at that position.
    Mismatch {
        /// 0-based position of the first diverging record.
        seq: u64,
        /// What the trace holds.
        recorded: Box<TraceRecord>,
        /// What the emulator retired.
        replayed: Box<TraceRecord>,
    },
}

impl std::fmt::Display for LockstepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockstepError::EmulatorEndedEarly { produced, expected } => write!(
                f,
                "emulator halted after {produced} records, trace holds {expected}"
            ),
            LockstepError::Mismatch { seq, recorded, replayed } => write!(
                f,
                "trace diverges at record {seq}: recorded {recorded:?}, replayed {replayed:?}"
            ),
        }
    }
}

impl std::error::Error for LockstepError {}

/// Replays the trace's embedded program on a fresh emulator and compares
/// every retired instruction against the recorded stream. Returns the
/// number of records verified.
///
/// This is the determinism contract of the format: a trace that passes
/// lockstep verification drives the pipeline exactly as the live emulator
/// would.
///
/// # Errors
///
/// The first [`LockstepError`] divergence found.
pub fn verify_lockstep(trace: &Trace) -> Result<u64, LockstepError> {
    let mut emu = Emulator::new(&trace.program);
    for (i, recorded) in trace.records.iter().enumerate() {
        let rec = match emu.step().expect("embedded program was builder-validated") {
            Some(rec) => rec,
            None => {
                return Err(LockstepError::EmulatorEndedEarly {
                    produced: i as u64,
                    expected: trace.records.len() as u64,
                })
            }
        };
        let replayed = to_trace_record(&trace.program, &rec);
        if replayed != *recorded {
            return Err(LockstepError::Mismatch {
                seq: i as u64,
                recorded: Box::new(*recorded),
                replayed: Box::new(replayed),
            });
        }
    }
    Ok(trace.records.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_workloads::by_name;

    #[test]
    fn recorded_traces_pass_lockstep() {
        let workload = by_name("gcc_1").expect("builtin workload");
        let trace = record_trace(&workload, 100, 2_000);
        assert_eq!(trace.records.len(), 2_000, "horizon bounds the record count");
        assert_eq!(verify_lockstep(&trace).expect("lockstep"), 2_000);
    }

    #[test]
    fn short_programs_stop_at_halt() {
        let workload = by_name("gcc_1").expect("builtin workload");
        let trace = record_trace(&workload, 2, 1_000_000);
        assert!(
            (trace.records.len() as u64) < trace.horizon,
            "two iterations halt well before the horizon"
        );
        assert_eq!(trace.records.last().map(|r| r.kind), Some(TraceKind::Halt));
        verify_lockstep(&trace).expect("lockstep");
    }

    #[test]
    fn tampered_records_fail_lockstep() {
        let workload = by_name("gcc_1").expect("builtin workload");
        let mut trace = record_trace(&workload, 100, 500);
        let target = trace
            .records
            .iter()
            .position(|r| r.kind == TraceKind::Load)
            .expect("gcc_1 loads early");
        trace.records[target].eff_addr = Some(0xDEAD_BEEF);
        match verify_lockstep(&trace) {
            Err(LockstepError::Mismatch { seq, .. }) => assert_eq!(seq, target as u64),
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }
}
