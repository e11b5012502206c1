#include "batch/queue.hpp"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "support/units.hpp"

namespace plin::batch {

QueueOutcome run_queue(std::span<const JobSpec> specs, ResultStore& store,
                       const QueueOptions& options) {
  PLIN_CHECK_MSG(options.workers >= 1, "queue: need >= 1 worker");

  QueueOutcome outcome;
  std::size_t cursor = 0;
  std::size_t execution_tickets = 0;
  std::mutex mutex;  // guards cursor, execution_tickets and outcome

  // Claims the next job to execute, in spec order. The cursor step, the
  // store probe and the execution ticket are one critical section, so the
  // jobs a max_jobs budget admits are the first uncached ones whatever the
  // thread timing. Tickets are claimed only for jobs that actually need to
  // run, so resumes make progress even when the budget is smaller than
  // the cached prefix.
  const auto claim = [&]() -> const JobSpec* {
    std::lock_guard<std::mutex> lock(mutex);
    while (cursor < specs.size()) {
      const JobSpec& spec = specs[cursor++];
      const std::string key = spec.key();
      if (store.probe(key).has_value()) {
        PLIN_LOG_INFO << "queue: skip (cached " << key << ") "
                      << spec.describe();
        ++outcome.cached;
      } else if (execution_tickets >= options.max_jobs) {
        ++outcome.stopped;
      } else {
        ++execution_tickets;
        return &spec;
      }
    }
    return nullptr;
  };

  auto worker_main = [&] {
    while (const JobSpec* claimed = claim()) {
      const JobSpec& spec = *claimed;
      const std::string key = spec.key();

      const int attempts_allowed = 1 + options.retries;
      std::string last_error;
      int attempt = 0;
      bool stored = false;
      for (attempt = 1; attempt <= attempts_allowed; ++attempt) {
        try {
          if (options.job_hook) options.job_hook(spec);
          Stopwatch wall;
          JobRecord record = execute_job(spec, options.trace_dir);
          const double elapsed = wall.elapsed_s();
          if (options.timeout_s > 0.0 && elapsed > options.timeout_s) {
            throw Error("job exceeded its time budget (" +
                        format_duration(elapsed) + " > " +
                        format_duration(options.timeout_s) + ")");
          }
          store.put(record);
          stored = true;
          PLIN_LOG_INFO << "queue: done (" << key << ", attempt " << attempt
                        << ") " << spec.describe();
          break;
        } catch (const std::exception& e) {
          last_error = e.what();
          PLIN_LOG_WARN << "queue: attempt " << attempt << "/"
                        << attempts_allowed << " failed for "
                        << spec.describe() << ": " << last_error;
        }
      }

      std::lock_guard<std::mutex> lock(mutex);
      if (stored) {
        ++outcome.executed;
      } else {
        outcome.failures.push_back(
            JobFailure{spec, last_error, attempts_allowed});
      }
    }
  };

  const int workers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(options.workers),
          specs.empty() ? 1 : specs.size()));
  if (workers <= 1) {
    worker_main();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker_main);
    for (std::thread& t : pool) t.join();
  }
  return outcome;
}

}  // namespace plin::batch
