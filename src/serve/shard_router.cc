#include "serve/shard_router.h"

#include <algorithm>
#include <future>
#include <vector>

#include "common/check.h"
#include "common/timer.h"

namespace pmw {
namespace serve {

void ShardRouter::ResetWindow(int num_shards) {
  PMW_CHECK_GE(num_shards, 0);
  window_us_.assign(static_cast<size_t>(num_shards), 0);
}

void ShardRouter::Run(int num_shards,
                      const std::function<void(int)>& shard_fn) {
  PMW_CHECK_GE(num_shards, 1);
  // When a timing window is open (and sized for this fan-out), each
  // shard closure is bracketed by a wall timer writing its own slot;
  // otherwise the raw closure runs. Timing never reorders or gates the
  // shard work itself.
  const bool timed = window_us_.size() >= static_cast<size_t>(num_shards);
  const auto run_shard = [this, &shard_fn, timed](int s) {
    if (!timed) {
      shard_fn(s);
      return;
    }
    WallTimer timer;
    shard_fn(s);
    window_us_[static_cast<size_t>(s)] +=
        static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
  };
  // At most one task per pool worker: indices are grouped into `groups`
  // contiguous runs, so a 32-chunk objective sweep costs 3 submissions on
  // a 4-thread pool, not 31. With num_shards <= pool size every group is
  // one index — the per-shard MW path.
  const int groups =
      pool_ == nullptr ? 1 : std::min(num_shards, pool_->size());
  const auto run_group = [&run_shard, num_shards, groups](int g) {
    const int lo = static_cast<int>(static_cast<long long>(num_shards) * g /
                                    groups);
    const int hi = static_cast<int>(static_cast<long long>(num_shards) *
                                    (g + 1) / groups);
    for (int s = lo; s < hi; ++s) run_shard(s);
  };
  if (groups <= 1) {
    run_group(0);
    return;
  }
  ++sections_;
  std::vector<std::future<void>> pending;
  pending.reserve(static_cast<size_t>(groups) - 1);
  try {
    // Groups 1..G-1 go to workers; group 0 runs on the writer, which
    // would otherwise just block on the join.
    for (int g = 1; g < groups; ++g) {
      pending.push_back(pool_->Submit([&run_group, g] { run_group(g); }));
    }
  } catch (...) {
    // Submit threw (pool shutdown / allocation): in-flight groups still
    // reference the caller's frame — join them before unwinding.
    for (std::future<void>& f : pending) f.wait();
    throw;
  }
  shard_tasks_ += static_cast<long long>(pending.size());
  try {
    run_group(0);
  } catch (...) {
    // Group 0 threw on the writer: the worker groups still reference the
    // caller's frame — join them before unwinding.
    for (std::future<void>& f : pending) f.wait();
    throw;
  }
  // Join every group before get() may rethrow: unwinding with groups in
  // flight would free the state they write.
  for (std::future<void>& f : pending) f.wait();
  for (std::future<void>& f : pending) f.get();
}

}  // namespace serve
}  // namespace pmw
