// Epoch-snapshotted reads for the serving stack.
//
// PMW-CM only mutates its hypothesis when the sparse vector fires a hard
// (kTop) round; between updates the hypothesis is frozen. An *epoch* is
// one such frozen interval, captured as an immutable compacted snapshot
// tagged with the hypothesis version that produced it. Readers (shard
// workers preparing queries) hold a shared_ptr to the epoch for as long
// as they need it; the single writer publishes a new epoch after every MW
// update. Old epochs stay alive until their last reader drops them, so a
// publish never invalidates in-flight reads — the classic RCU shape,
// with shared_ptr as the grace period.

#ifndef PMWCM_SERVE_EPOCH_STATE_H_
#define PMWCM_SERVE_EPOCH_STATE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/pmw_cm.h"

namespace pmw {
namespace serve {

/// One immutable serving epoch. `snapshot->version` is the mechanism's
/// hypothesis_version() at capture; `sequence` counts publishes (a batch
/// republishes at its start, so sequence can advance without a version
/// change — it orders publishes, the version keys plan freshness).
///
/// The snapshot is held behind a shared_ptr so consecutive epochs at the
/// same (version, shard set) SHARE one compacted support buffer:
/// republishing an unchanged hypothesis costs O(K), not an O(|X|)
/// compaction pass — the difference between per-batch and per-hard-round
/// work, and what keeps the common soft-round path cheap at
/// |X| >= 2^20.
///
/// The snapshot is additionally published per domain shard: `shards`
/// holds one zero-copy [lo, hi) slice view into snapshot->support per
/// shard of the mechanism's hypothesis, in shard order, and their
/// concatenation is exactly snapshot->support (data::SliceSupport). The
/// slices borrow snapshot->support's buffer, so they share the (possibly
/// multi-epoch) snapshot's immutability and lifetime.
struct Epoch {
  /// One shard's view of the snapshot.
  struct ShardSlice {
    int lo = 0;
    int hi = 0;
    data::SupportSlice support;
    /// FNV-1a over this slice's (index, mass-bits) entries: the exact
    /// bytes Prepare reads from this shard. Equal fingerprints on equal
    /// partitions mean byte-equal slices.
    uint64_t content_fingerprint = 0;
  };

  std::shared_ptr<const core::HypothesisSnapshot> snapshot;
  long long sequence = 0;
  std::vector<ShardSlice> shards;
  /// The mechanism's shard-set identity at capture (what
  /// (epoch, shard-set)-aware plan caches key on, alongside the version).
  uint64_t shard_fingerprint = 0;
  /// Folds the per-shard content fingerprints (in shard order) into one
  /// word. Two epochs agreeing on (shard_fingerprint,
  /// content_fingerprint) publish byte-identical per-shard supports, so
  /// any plan is byte-identical between them up to its version stamp —
  /// the key fact that lets plan caches serve across epochs and versions
  /// whose content never actually moved.
  uint64_t content_fingerprint = 0;
};

/// Single-writer, many-reader holder of the current epoch.
///
/// Thread safety: Publish must only be called by the serving writer (it
/// snapshots the live mechanism, which the writer alone may mutate);
/// Current may be called from any thread at any time.
class EpochState {
 public:
  /// Captures the mechanism's current hypothesis as a new epoch and makes
  /// it current. Returns the published epoch.
  std::shared_ptr<const Epoch> Publish(const core::PmwCm& cm);

  /// The most recently published epoch; null before the first Publish.
  std::shared_ptr<const Epoch> Current() const;

  long long epochs_published() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Epoch> current_;
  long long published_ = 0;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_EPOCH_STATE_H_
