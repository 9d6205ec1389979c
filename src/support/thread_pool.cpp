#include "support/thread_pool.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace ds {

void parallel_for_threads(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  struct FailureSlot {
    Mutex mutex;
    std::exception_ptr first DS_GUARDED_BY(mutex);
  } failure;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        const MutexLock lock(failure.mutex);
        if (!failure.first) failure.first = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // All workers are joined: the slot is quiescent and this thread holds the
  // only reference, but the analysis still wants the capability held.
  const MutexLock lock(failure.mutex);
  if (failure.first) std::rethrow_exception(failure.first);
}

}  // namespace ds
