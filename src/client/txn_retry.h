// Transaction retry helper: runs a read-modify-write body with automatic
// retry on deadlock / validation-abort / busy outcomes — the loop every
// interactive application otherwise writes by hand.
//
// Failure semantics over a remote backend: an RPC that misses its deadline
// returns TimedOut (the connection survives; a plain retry is fine), while
// a connection lost with a commit in flight returns Status::Unknown — the
// commit may or may not have applied. Retrying an Unknown outcome is safe
// *because* the body is a read-modify-write run in a fresh transaction: it
// re-reads current state (which reflects the first commit iff it applied)
// and re-derives its writes, exactly like a user pressing "retry". So an
// Unknown outcome is always retried, and a body must re-read what it writes.

#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "client/client_api.h"
#include "common/rng.h"

namespace idba {

struct TxnRetryOptions {
  int max_attempts = 10;
  /// Invoked before retrying after a transport-flavored failure (Unknown
  /// outcome or IOError) — e.g. RemoteDatabaseClient::Reconnect. Without
  /// it, IOError is terminal (an Unknown outcome still retries, in case
  /// something else repaired the connection). A non-OK return stops the
  /// loop and becomes the final status.
  std::function<Status()> recover;
  /// Milliseconds to sleep before retry number `attempt` (1 = before the
  /// second try) that failed with `st`. Return 0 for no sleep (the default
  /// when unset, preserving the tight-loop behaviour). Regardless of the
  /// hook, an Overloaded failure always waits at least the server's
  /// retry-after hint (client->retry_after_hint_ms()) — cooperating with
  /// admission control instead of hammering a shedding server.
  std::function<int64_t(int attempt, const Status& st)> backoff;
};

/// Canned backoff hook: capped exponential with full jitter — sleep is
/// uniform in [0, min(base * 2^(attempt-1), cap)]. Deterministic for a
/// given seed; distinct clients should seed with their client id so their
/// retries decorrelate.
inline std::function<int64_t(int, const Status&)>
ExponentialBackoffWithJitter(uint64_t seed, int64_t base_ms = 10,
                             int64_t cap_ms = 1000) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng, base_ms, cap_ms](int attempt, const Status&) -> int64_t {
    int64_t ceiling = std::max<int64_t>(base_ms, 1);
    for (int i = 1; i < attempt && ceiling < cap_ms; ++i) ceiling *= 2;
    ceiling = std::min(ceiling, std::max<int64_t>(cap_ms, 1));
    return rng->NextInRange(0, ceiling);
  };
}

struct TxnRetryResult {
  Status status;      ///< final outcome
  int attempts = 0;   ///< total tries (1 = first try succeeded)
  CommitResult commit;  ///< valid when status.ok()
};

/// Runs `body(client, txn)` in a fresh transaction, committing afterwards.
/// On Deadlock / Aborted / TimedOut / Busy / Overloaded / Unknown (and
/// IOError when opts.recover is set) from the begin, the body, or the
/// commit, aborts (if still active) and retries up to `max_attempts`. Any
/// other error aborts and returns immediately.
inline TxnRetryResult RunTransaction(
    ClientApi* client,
    const std::function<Status(ClientApi&, TxnId)>& body,
    TxnRetryOptions opts = {}) {
  TxnRetryResult result;
  for (result.attempts = 1; result.attempts <= opts.max_attempts;
       ++result.attempts) {
    Status st;
    Result<TxnId> begun = client->BeginTxn();
    if (begun.ok()) {
      TxnId txn = begun.value();
      st = body(*client, txn);
      if (st.ok()) {
        auto commit = client->Commit(txn);
        if (commit.ok()) {
          result.status = Status::OK();
          result.commit = std::move(commit).value();
          return result;
        }
        st = commit.status();
        // CommitValidated already aborted server-side on validation
        // failure; for other commit errors the txn is finished too.
      } else {
        (void)client->Abort(txn);
      }
    } else {
      st = begun.status();
    }
    const bool transport_failure =
        st.IsUnknown() || st.code() == StatusCode::kIOError;
    const bool retryable =
        st.IsDeadlock() || st.IsAborted() || st.IsTimedOut() || st.IsBusy() ||
        st.IsOverloaded() || st.IsUnknown() ||
        (transport_failure && opts.recover != nullptr);
    if (!retryable) {
      result.status = st;
      return result;
    }
    if (transport_failure && opts.recover) {
      Status recovered = opts.recover();
      if (!recovered.ok()) {
        result.status = recovered;
        return result;
      }
    }
    // Back off before the next attempt: the hook's choice, floored by the
    // server's retry-after hint when the server explicitly shed us.
    int64_t sleep_ms =
        opts.backoff ? std::max<int64_t>(opts.backoff(result.attempts, st), 0)
                     : 0;
    if (st.IsOverloaded()) {
      sleep_ms = std::max(sleep_ms, client->retry_after_hint_ms());
    }
    if (sleep_ms > 0 && result.attempts < opts.max_attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    result.status = st;  // keep the latest failure in case we run out
  }
  --result.attempts;
  return result;
}

}  // namespace idba
