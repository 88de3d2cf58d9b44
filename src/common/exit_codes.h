#ifndef HPRL_COMMON_EXIT_CODES_H_
#define HPRL_COMMON_EXIT_CODES_H_

#include "common/result.h"

namespace hprl {

/// Documented exit-code taxonomy of the CLI tools (hprl_link, hprl_party),
/// so supervisors and the chaos harness can tell a misconfiguration from a
/// dead fleet from a damaged artifact without parsing stderr:
///
///   0  success
///   1  unclassified runtime failure
///   2  configuration / usage error: bad flags, malformed spec, missing
///      inputs (restarting without changing the invocation cannot help)
///   3  transport failure: unreachable or dead daemons, socket/frame I/O
///      (restarting against a healthy fleet can help). A journal that
///      cannot be written (full disk) is local storage, not transport: the
///      session and serve runners report it as Internal, so it exits 1.
///   4  integrity failure of persistent crypto/session artifacts: corrupt
///      or fingerprint-mismatched material stores and session or serve
///      journals, fenced session epochs (the artifact must be removed or
///      the right one supplied; resuming as-is would be unsound)
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitConfig = 2;
inline constexpr int kExitTransport = 3;
inline constexpr int kExitIntegrity = 4;

/// Maps a failed Status onto the taxonomy: InvalidArgument and NotFound are
/// configuration (something named does not exist or is malformed),
/// Unavailable and IOError are transport, FailedPrecondition is an
/// integrity refusal (that is the code every corrupt-artifact and fencing
/// path returns), everything else is unclassified.
inline int ExitCodeForStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      return kExitConfig;
    case StatusCode::kUnavailable:
    case StatusCode::kIOError:
      return kExitTransport;
    case StatusCode::kFailedPrecondition:
      return kExitIntegrity;
    default:
      return kExitFailure;
  }
}

}  // namespace hprl

#endif  // HPRL_COMMON_EXIT_CODES_H_
