// In-memory span recording for the benchmark's traced runs.
//
// Spans are taken only in the benchmark's own code, around the calls it
// makes into each layer's public functions (the decorators below and the
// op loop in workloads.cc). The load runs on one thread, so one stack of
// open spans gives every span its parent; calls from other threads (the
// remote client's reader) are not recorded. Spans stay in memory and are
// written out once, when the run ends.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client_api.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span; -1 for a root
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Turns recording on or off; recording is bound to the calling thread.
  void SetEnabled(bool on);

  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Hands over the spans recorded so far and starts afresh.
  std::vector<SpanRecord> TakeSpans();

 private:
  bool enabled_ = false;
  std::thread::id owner_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
};

Tracer& GlobalTracer();

/// Total duration of each span's direct children.
std::vector<int64_t> ChildTime(const std::vector<SpanRecord>& spans);

/// Writes spans as tab-separated lines, each group under its label.
bool WriteSpansTsv(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<SpanRecord>>>& groups);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(GlobalTracer().enabled() ? GlobalTracer().Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) GlobalTracer().Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

/// ClientApi decorator: a span around every operation the workloads call.
class TracedClient : public idba::ClientApi {
 public:
  explicit TracedClient(std::unique_ptr<idba::ClientApi> inner)
      : inner_(std::move(inner)) {}

  idba::ClientId id() const override { return inner_->id(); }
  idba::VirtualClock& clock() override { return inner_->clock(); }
  idba::Inbox& inbox() override { return inner_->inbox(); }
  idba::ObjectCache& cache() override { return inner_->cache(); }
  const idba::SchemaCatalog& schema() const override { return inner_->schema(); }
  const idba::CostModel& cost_model() const override {
    return inner_->cost_model();
  }
  idba::ConsistencyMode consistency() const override {
    return inner_->consistency();
  }
  idba::Result<idba::ClassId> DefineClass(const std::string& name,
                                          idba::ClassId base) override {
    return inner_->DefineClass(name, base);
  }
  idba::Status AddAttribute(idba::ClassId cls, const std::string& name,
                            idba::ValueType type,
                            idba::Value default_value) override {
    return inner_->AddAttribute(cls, name, type, std::move(default_value));
  }
  idba::Result<idba::TxnId> BeginTxn() override {
    ScopedSpan span("client.Begin");
    return inner_->BeginTxn();
  }
  idba::Result<idba::DatabaseObject> Read(idba::TxnId txn,
                                          idba::Oid oid) override {
    ScopedSpan span("client.Read");
    return inner_->Read(txn, oid);
  }
  idba::Result<idba::DatabaseObject> ReadCurrent(idba::Oid oid) override {
    ScopedSpan span("client.ReadCurrent");
    return inner_->ReadCurrent(oid);
  }
  idba::Status Write(idba::TxnId txn, idba::DatabaseObject obj) override {
    ScopedSpan span("client.Write");
    return inner_->Write(txn, std::move(obj));
  }
  idba::Status Insert(idba::TxnId txn, idba::DatabaseObject obj) override {
    ScopedSpan span("client.Insert");
    return inner_->Insert(txn, std::move(obj));
  }
  idba::Status EraseObject(idba::TxnId txn, idba::Oid oid) override {
    ScopedSpan span("client.Erase");
    return inner_->EraseObject(txn, oid);
  }
  idba::Result<idba::CommitResult> Commit(idba::TxnId txn) override {
    ScopedSpan span("client.Commit");
    return inner_->Commit(txn);
  }
  idba::Status Abort(idba::TxnId txn) override {
    ScopedSpan span("client.Abort");
    return inner_->Abort(txn);
  }
  idba::Result<std::vector<idba::DatabaseObject>> ScanClass(
      idba::ClassId cls, bool include_subclasses) override {
    ScopedSpan span("client.ScanClass");
    return inner_->ScanClass(cls, include_subclasses);
  }
  idba::Result<std::vector<idba::DatabaseObject>> RunQuery(
      const idba::ObjectQuery& query) override {
    ScopedSpan span("client.RunQuery");
    return inner_->RunQuery(query);
  }
  idba::Result<idba::Oid> NewOid() override { return inner_->NewOid(); }
  idba::Result<uint64_t> LatestVersion(idba::Oid oid) override {
    ScopedSpan span("client.LatestVersion");
    return inner_->LatestVersion(oid);
  }
  uint64_t rpcs_issued() const override { return inner_->rpcs_issued(); }
  uint64_t validation_aborts() const override {
    return inner_->validation_aborts();
  }
  int64_t retry_after_hint_ms() const override {
    return inner_->retry_after_hint_ms();
  }

 private:
  std::unique_ptr<idba::ClientApi> inner_;
};

/// DisplayLockService decorator: a span around every D-lock request.
class TracedLocks : public idba::DisplayLockService {
 public:
  explicit TracedLocks(idba::DisplayLockService* inner) : inner_(inner) {}

  idba::Status Lock(idba::ClientId holder, idba::Oid oid,
                    idba::VTime sent_at) override {
    ScopedSpan span("lock.Lock");
    return inner_->Lock(holder, oid, sent_at);
  }
  idba::Status Unlock(idba::ClientId holder, idba::Oid oid,
                      idba::VTime sent_at) override {
    ScopedSpan span("lock.Unlock");
    return inner_->Unlock(holder, oid, sent_at);
  }
  idba::Status LockBatch(idba::ClientId holder,
                         const std::vector<idba::Oid>& oids,
                         idba::VTime sent_at) override {
    ScopedSpan span("lock.LockBatch");
    return inner_->LockBatch(holder, oids, sent_at);
  }
  idba::Status UnlockBatch(idba::ClientId holder,
                           const std::vector<idba::Oid>& oids,
                           idba::VTime sent_at) override {
    ScopedSpan span("lock.UnlockBatch");
    return inner_->UnlockBatch(holder, oids, sent_at);
  }

 private:
  idba::DisplayLockService* inner_;
};

}  // namespace perfbench
