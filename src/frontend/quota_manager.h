// Admission control for the multi-analyst front-end.
//
// PMW-CM's value proposition is that accuracy degrades with the number
// of *hard* rounds, not the number of analysts — but an individual
// analyst can still burn the shared k-query budget or flood the queue.
// The QuotaManager sits at the front door and rejects work *before* it
// can cost anything: a rejected query never enters the MPSC queue, never
// reaches the mechanism, and therefore never consumes a query slot, a
// sparse-vector threshold test, or a ledger event (tests assert the
// ledger is byte-identical across a rejection).
//
// Two kinds of budget are enforced:
//   * per-analyst / global query quotas, tracked here (admission
//     reserves a slot atomically, so concurrent submitters cannot
//     overshoot), and
//   * the mechanism's hard-round budget, read through a dp::BudgetView
//     over the privacy ledger ("oracle:" events vs the schedule's T) —
//     the ledger's lock makes that view safe from any submitter thread
//     while the serving writer keeps recording, and once T oracle calls
//     are spent the sparse vector is halted, so admitting more work
//     could only ever produce kHalted errors downstream.
//
// Rejections are typed through the api::ErrorCode taxonomy (api/error.h):
// api::ErrorCode::kQuotaExceeded for query-quota exhaustion (legacy
// StatusCode::kResourceExhausted) and api::ErrorCode::kHalted for a spent
// hard-round budget. The canonical "[kCode] " message tag makes the
// classification lossless across the wire.

#ifndef PMWCM_FRONTEND_QUOTA_MANAGER_H_
#define PMWCM_FRONTEND_QUOTA_MANAGER_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "dp/ledger.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace frontend {

struct QuotaOptions {
  /// Queries each analyst may have admitted over the session's lifetime;
  /// <= 0 means unlimited.
  long long per_analyst_queries = 0;
  /// Global cap across all analysts; <= 0 means unlimited (the
  /// mechanism's own k-query budget still applies downstream and rejects
  /// overflow with typed errors at zero privacy cost).
  long long global_queries = 0;
};

class QuotaManager {
 public:
  /// `service` must outlive the manager; its mechanism's schedule fixes
  /// the hard-round budget T and its ledger is the consumption record.
  QuotaManager(const serve::PmwService* service, const QuotaOptions& options);

  /// Thread-safe admission check: reserves one slot for `analyst_id` or
  /// returns a typed rejection (see file comment). Called by submitter
  /// threads before a request may enter the queue.
  Status Admit(const std::string& analyst_id);

  /// Returns a slot Admit reserved for a request that was never served
  /// (the dispatcher shut down before it could enqueue) — the analyst
  /// must not stay charged for work the mechanism never saw.
  void Refund(const std::string& analyst_id);

  /// Admitted queries for one analyst (0 for unknown analysts).
  long long admitted(const std::string& analyst_id) const;
  long long total_admitted() const;
  long long total_rejected() const;

  /// Hard rounds (oracle calls / MW updates) left before the sparse
  /// vector halts, per the ledger.
  long long HardRoundsRemaining() const { return oracle_view_.remaining(); }
  /// Privacy the oracle calls have cost so far (basic composition over
  /// the ledger's "oracle:" events).
  dp::PrivacyParams OracleSpent() const { return oracle_view_.Spent(); }

  const QuotaOptions& options() const { return options_; }

 private:
  const QuotaOptions options_;
  dp::BudgetView oracle_view_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, long long> admitted_;
  long long total_admitted_ = 0;
  long long total_rejected_ = 0;
};

}  // namespace frontend
}  // namespace pmw

#endif  // PMWCM_FRONTEND_QUOTA_MANAGER_H_
