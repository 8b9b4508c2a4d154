//! Adapting a decoded trace into a [`Workload`] so the whole pipeline
//! (harness, sweeps, sampling, the daemon) can consume trace
//! files as just another workload.

use crate::codec::Trace;
use phast_workloads::Workload;

/// Wraps a trace's embedded program as a [`Workload`].
///
/// The workload keeps the trace's recorded name and description verbatim
/// and returns the embedded program **ignoring the requested iteration
/// count** — the program was frozen at record time, and rebuilding it at
/// a different scale would break the byte-identity contract between a
/// replayed sweep and the direct-emulator run the trace was recorded
/// from. Callers who want a different scale should re-record.
pub fn trace_workload(trace: &Trace) -> Workload {
    let program = trace.program.clone();
    Workload::dynamic(
        trace.name.clone(),
        format!("replayed from PHTR trace: {}", trace.description),
        move |_iters| program.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::program_bytes;
    use crate::record::record_trace;
    use phast_workloads::by_name;

    #[test]
    fn trace_workload_ignores_iters_and_keeps_name() {
        let base = by_name("gcc_1").expect("builtin workload");
        let trace = record_trace(&base, 100, 1_000);
        let w = trace_workload(&trace);
        assert_eq!(w.name, "gcc_1");
        let direct = program_bytes(&base.build(100));
        assert_eq!(program_bytes(&w.build(100)), direct);
        // iters is deliberately ignored: the embedded program is frozen.
        assert_eq!(program_bytes(&w.build(7)), direct);
    }
}
