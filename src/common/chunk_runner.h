// The one fan-out shape shared by every parallel sweep in the mechanism.
//
// A ChunkRunner runs fn(i) for every i in [0, n) and returns only once
// all of them finished. Callers split their work into n independent
// pieces whose outputs land in disjoint slots, then combine the slots on
// the calling thread in index order — so a runner may execute the pieces
// in any order, on any threads, and the result never depends on it. An
// empty (or absent) runner means "loop inline in index order", the
// sequential configuration.
//
// Two users: core::ShardedHypothesis fans its per-shard MW-update phases
// out through one (core::ShardRunner is this type), and
// convex::SupportObjective fans the fixed chunks of an objective sweep
// out through one. serve::ShardRouter is the thread-pool-backed
// implementation the serving layer passes to both.

#ifndef PMWCM_COMMON_CHUNK_RUNNER_H_
#define PMWCM_COMMON_CHUNK_RUNNER_H_

#include <functional>

namespace pmw {

using ChunkRunner =
    std::function<void(int n, const std::function<void(int)>& fn)>;

}  // namespace pmw

#endif  // PMWCM_COMMON_CHUNK_RUNNER_H_
