//! The parallel cell executor.
//!
//! Engines are deterministic and single-threaded, so a sweep's cells
//! are embarrassingly parallel: [`run_cells`] fans a batch of
//! [`SimulationBuilder`]s out over a pool of worker threads pulling
//! from a shared atomic work queue (finished workers steal whatever
//! cell is next, so an uneven grid keeps every core busy).
//!
//! Failure is *per cell*: a build error, run error or even a panic in
//! one simulation becomes that cell's `Err` — it cannot poison a lock,
//! lose neighbors' results, or abort the grid.
//!
//! Completed cells are *streamed*: [`run_cells_into`] hands each
//! `(index, CellRun)` to a delivery callback the moment its worker
//! finishes, which is what drives the sweep layer's
//! [`CellSink`](crate::CellSink)s. [`run_cells`] is the buffered
//! convenience wrapper.

use camdn_runtime::{EngineError, RunOutput, SimulationBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Outcome of one executed cell.
#[derive(Debug)]
pub struct CellRun {
    /// The simulation's result, or the structured error that stopped it
    /// (including [`EngineError::Panicked`] for caught panics).
    pub outcome: Result<RunOutput, EngineError>,
    /// Wall-clock seconds this cell spent building + running.
    pub wall_s: f64,
}

/// Worker count for `jobs` cells: the explicit request, else available
/// parallelism — clamped in both cases to
/// `1..=available_parallelism` and never more workers than cells.
///
/// An explicit request outside that range (`threads(0)`, or an absurd
/// oversubscription like `threads(10_000)`) used to spawn exactly what
/// was asked; it is now clamped with a note on stderr, since zero
/// workers deadlock and thousands of engine threads only thrash.
pub(crate) fn resolve_threads(requested: Option<usize>, jobs: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let cap = available.min(jobs.max(1)).max(1);
    match requested {
        None => cap,
        Some(t) => {
            let clamped = t.clamp(1, cap);
            if t == 0 || t > available {
                eprintln!(
                    "camdn-sweep: clamping requested thread count {t} to {clamped} \
                     (available parallelism {available}, {jobs} cells)"
                );
            }
            clamped
        }
    }
}

/// Runs every builder to completion over a worker pool, delivering each
/// finished cell to `deliver(index, run)` as soon as its worker
/// completes it.
///
/// Delivery order is completion order (non-deterministic under more
/// than one worker); the index identifies the cell. `deliver` is called
/// from worker threads, one call at a time (an internal lock
/// serializes it), so sinks need no interior synchronization of their
/// own.
pub fn run_cells_into(
    builders: Vec<SimulationBuilder>,
    threads: Option<usize>,
    deliver: &mut (dyn FnMut(usize, CellRun) + Send),
) {
    let n = builders.len();
    if n == 0 {
        return;
    }
    let threads = resolve_threads(threads, n);
    // Each job is taken exactly once; a Mutex<Option<..>> per slot keeps
    // the builders `Sync` without cloning them.
    let jobs: Vec<Mutex<Option<SimulationBuilder>>> =
        builders.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let next = AtomicUsize::new(0);
    // The delivery callback is shared by all workers behind one lock.
    let sink = Mutex::new(deliver);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let builder = match jobs[i].lock() {
                    Ok(mut guard) => guard.take(),
                    // Cannot happen (cells catch their own
                    // panics), but un-poison rather than die.
                    Err(poisoned) => poisoned.into_inner().take(),
                };
                // camdn-lint: allow(wall-clock-in-sim, reason = "reported wall_s bookkeeping only; simulated results never read it and bit-for-bit comparisons exclude it")
                let t0 = Instant::now();
                let outcome = match builder {
                    Some(b) => run_one(b),
                    None => Err(EngineError::Panicked {
                        detail: "sweep job vanished before it ran".into(),
                    }),
                };
                let run = CellRun {
                    outcome,
                    wall_s: t0.elapsed().as_secs_f64(),
                };
                let mut guard = match sink.lock() {
                    Ok(guard) => guard,
                    // A sink panicked on an earlier cell; keep
                    // draining the queue so the scope can join.
                    Err(poisoned) => poisoned.into_inner(),
                };
                (*guard)(i, run);
            });
        }
    });
}

/// Runs every builder to completion over a worker pool, preserving
/// input order in the returned vector.
///
/// `threads` is the worker count (`None` = available parallelism); it
/// is capped at the number of jobs. Each cell's failure — including a
/// panic inside the engine or a custom policy — surfaces as its own
/// `Err` entry without disturbing any other cell.
///
/// Caught panics still pass through the process's panic hook before
/// unwinding, so each one prints its usual `thread panicked at ...`
/// message to stderr (useful diagnostics, and the hook is process
/// state this library deliberately does not touch). Callers that want
/// silence can install their own quiet hook around the call.
pub fn run_cells(builders: Vec<SimulationBuilder>, threads: Option<usize>) -> Vec<CellRun> {
    let n = builders.len();
    let mut out: Vec<Option<CellRun>> = (0..n).map(|_| None).collect();
    run_cells_into(builders, threads, &mut |i, run| out[i] = Some(run));
    out.into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| CellRun {
                outcome: Err(EngineError::Panicked {
                    detail: "worker thread lost this cell".into(),
                }),
                wall_s: 0.0,
            })
        })
        .collect()
}

/// Builds and runs one cell, converting a panic into a structured
/// error.
fn run_one(builder: SimulationBuilder) -> Result<RunOutput, EngineError> {
    match catch_unwind(AssertUnwindSafe(move || builder.run())) {
        Ok(result) => result,
        Err(payload) => Err(EngineError::Panicked {
            detail: panic_detail(payload.as_ref()),
        }),
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_empty() {
        assert!(run_cells(Vec::new(), None).is_empty());
    }

    #[test]
    fn thread_resolution_caps_at_jobs_and_parallelism() {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        // Explicit requests are clamped to [1, min(available, jobs)].
        assert_eq!(resolve_threads(Some(8), 3), available.min(3));
        assert_eq!(resolve_threads(Some(2), 100), 2.min(available));
        assert_eq!(resolve_threads(Some(0), 5), 1, "zero workers deadlock");
        assert_eq!(
            resolve_threads(Some(1_000_000), 1_000_000),
            available,
            "absurd oversubscription is clamped to available parallelism"
        );
        // The default never exceeds parallelism or the job count.
        let d = resolve_threads(None, 100);
        assert!(d >= 1 && d <= available);
        assert_eq!(resolve_threads(None, 1), 1);
        assert_eq!(resolve_threads(None, 0), 1);
    }

    #[test]
    fn streaming_delivery_covers_every_index_exactly_once() {
        let models = vec![camdn_models::zoo::mobilenet_v2()];
        let builders: Vec<_> = (0..6)
            .map(|seed| {
                camdn_runtime::Simulation::builder()
                    .seed(seed)
                    .warmup_rounds(0)
                    .workload(camdn_runtime::Workload::closed(models.clone(), 1))
            })
            .collect();
        let mut seen = vec![0u32; 6];
        run_cells_into(builders, Some(3), &mut |i, run| {
            assert!(run.outcome.is_ok());
            seen[i] += 1;
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }
}
