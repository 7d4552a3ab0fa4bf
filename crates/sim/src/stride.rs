//! The one worker-striding driver behind every parallel sweep in this crate.

use std::iter::StepBy;
use std::ops::Range;

use scout_equiv::Parallelism;

/// Runs `items` indexed work items on the workers `parallelism` resolves to
/// (see [`Parallelism::worker_count`]) and returns the results in index
/// order, together with the number of workers used.
///
/// Worker `w` of `n` receives the indices `w, w + n, w + 2n, …` and returns
/// one result per index, in that order. Per-worker state (a session, a
/// server node) lives inside `work`. A single worker runs on the calling
/// thread. Every index goes to exactly one worker and results are placed by
/// index, so the output does not depend on the worker count.
pub(crate) fn stride<T: Send>(
    items: usize,
    parallelism: Parallelism,
    work: impl Fn(StepBy<Range<usize>>) -> Vec<T> + Sync,
) -> (Vec<T>, usize) {
    let workers = parallelism.worker_count(items);
    if workers <= 1 {
        return (work((0..items).step_by(1)), 1);
    }
    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|worker| scope.spawn(move || work((worker..items).step_by(workers))))
            .collect();
        for (worker, handle) in handles.into_iter().enumerate() {
            let results = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, result) in (worker..items).step_by(workers).zip(results) {
                slots[index] = Some(result);
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index is covered by one worker"))
        .collect();
    (results, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Fixed(3),
            Parallelism::Fixed(64),
        ] {
            let (results, workers) = stride(10, parallelism, |indices| {
                indices.map(|index| index * index).collect()
            });
            assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(workers, parallelism.worker_count(10));
        }
        let (empty, workers) = stride(0, Parallelism::Fixed(4), |indices| indices.collect());
        assert!(empty.is_empty());
        assert_eq!(workers, 1);
    }
}
