// One OS thread per logical worker: the fabric harness runs each rank on its
// own thread, run_async runs each async/Hogwild worker on its own thread,
// and check::explore runs each explored rank on its own thread. No compute
// kernel uses threads.
#pragma once

#include <cstddef>
#include <functional>

namespace ds {

/// Run fn(i) for i in [0, n) across `threads` std::threads and join them all.
/// If one or more workers throw, every thread is still joined and the first
/// captured exception is rethrown on the calling thread (instead of the
/// std::terminate an escaping thread exception would cause) — note the
/// remaining workers must be able to finish on their own for the join to
/// return, which the fabric's fault mode guarantees via RankFailure.
void parallel_for_threads(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ds
