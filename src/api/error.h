// The unified error taxonomy of the pmw::api protocol.
//
// Three layers of the stack mint recoverable errors today — the mechanism
// (core::PmwCm: halted sparse vector, spent k-query budget), the serving
// front-end (frontend::QuotaManager / Dispatcher: quota and shutdown
// rejections), and the solvers underneath (invalid arguments,
// non-convergence). Each historically spoke its own dialect of
// common::Status strings. The wire protocol needs ONE vocabulary that
// (a) survives a round trip through the codec losslessly and (b) maps
// every Status the lower layers emit to exactly one typed code, so a
// remote client can switch on the code instead of grepping messages.
//
// The mapping is made lossless by a canonical message form: MakeStatus
// tags the message with "[kCodeName] " and ClassifyStatus recovers the
// exact code from the tag. Untagged legacy statuses (whatever the lower
// layers still emit) fall back to a documented, total classification —
// every StatusCode lands on a taxonomy code, never on "unknown".
//
// This header sits below frontend/ in the build graph (it depends only on
// common/) so admission control can mint taxonomy errors without a
// dependency cycle; the rest of the api layer (codec, transports,
// endpoints) lives above frontend/.

#ifndef PMWCM_API_ERROR_H_
#define PMWCM_API_ERROR_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace pmw {
namespace api {

/// The protocol's error vocabulary. Values are wire-stable: they are
/// encoded into AnswerEnvelope frames, so existing entries must never be
/// renumbered (append only).
enum class ErrorCode : uint16_t {
  kOk = 0,
  /// A front-door query quota (per-analyst or global) rejected the
  /// request before it reached the mechanism. Zero privacy cost.
  kQuotaExceeded = 1,
  /// The mechanism's k-query budget is spent.
  kBudgetExhausted = 2,
  /// The sparse vector exhausted its T hard rounds (mechanism halted, or
  /// admission predicted the halt from the ledger).
  kHalted = 3,
  /// The request's deadline passed before it was served. Zero privacy
  /// cost: expiry is detected before the mechanism sees the query.
  kDeadlineExpired = 4,
  /// The request frame failed to decode (bad framing, truncated or
  /// corrupt fields) or carried invalid arguments.
  kMalformedRequest = 5,
  /// The frame's protocol version is outside the range this endpoint
  /// speaks.
  kVersionMismatch = 6,
  /// The request named a query the server's catalog does not hold.
  kUnknownQuery = 7,
  /// The endpoint (or its dispatcher) is shut down.
  kShutdown = 8,
  /// An inner solver failed to converge.
  kNotConverged = 9,
  /// The transport failed (broken socket, closed channel).
  kTransportError = 10,
  kInternal = 11,
  /// Retired: no longer produced. Kept so kAuthRequired stays 13 on the
  /// wire.
  kShardUnavailable = 12,
  /// The connection has not completed the hello/auth exchange the
  /// endpoint requires, presented a bad token, or sent a request whose
  /// analyst id differs from the one bound to the connection.
  kAuthRequired = 13,
};

/// The highest assigned ErrorCode — THE one place to bump when appending
/// a code (the name switch in error.cc fails to compile if forgotten;
/// the codec and the tag parser both derive their ranges from this).
inline constexpr ErrorCode kMaxErrorCode = ErrorCode::kAuthRequired;

/// Stable name, e.g. "kQuotaExceeded" (also the canonical message tag).
const char* ErrorCodeName(ErrorCode code);

/// The legacy StatusCode a taxonomy code degrades to, chosen so that
/// pre-protocol callers switching on StatusCode keep working (quota
/// rejections stay kResourceExhausted, halts stay kHalted, ...).
StatusCode LegacyCode(ErrorCode code);

/// Mints a Status in canonical form: code LegacyCode(code), message
/// "[kCodeName] detail". ClassifyStatus recovers `code` exactly.
Status MakeStatus(ErrorCode code, const std::string& detail);

/// Total classification of any Status into the taxonomy. Tagged
/// (MakeStatus-minted) messages map back exactly; untagged legacy
/// statuses classify by (code, message) as documented in error.cc.
ErrorCode ClassifyStatus(const Status& status);

/// Rebuilds a Status from an (ErrorCode, message) pair that crossed the
/// wire. kOk yields Status::Ok(); the message travels unchanged, so
/// Classify(ToStatus(c, m)) == c whenever m is canonical, and the
/// envelope's explicit code field keeps it lossless even when not.
Status ToStatus(ErrorCode code, std::string message);

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_ERROR_H_
