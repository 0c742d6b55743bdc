#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/session.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"
#include "nms/display_classes.h"
#include "tracing.h"
#include "viz/ascii_canvas.h"
#include "viz/pdq_tree.h"
#include "viz/treemap.h"

namespace perfbench {

using idba::ActiveView;
using idba::ClientApi;
using idba::ClientId;
using idba::DatabaseObject;
using idba::DisplayLockService;
using idba::DisplayObject;
using idba::InteractiveSession;
using idba::Oid;
using idba::Result;
using idba::Status;
using idba::Value;
using idba::VTime;

bool SpecFor(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "monitor_fanout" || name == "monitor_fanout_tcp") {
    // 768 links (256 nodes of degree 6) and a 364-component hardware tree:
    // every page fits the 256-frame buffer pool and every object the 4 MiB
    // client cache, so neither cache misses once warm.
    s.net.num_nodes = 256;
    s.net.avg_degree = 6.0;
    s.net.sites = 1;
    s.net.buildings_per_site = 2;
    s.net.racks_per_building = 4;
    s.net.devices_per_rack = 4;
    s.net.cards_per_device = 2;
    s.net.ports_per_card = 4;
    if (name == "monitor_fanout") {
      s.viewers = 4;
      s.updates_per_browse = 64;
      s.warmup_ops = 2000;
      s.vtime_ops = 4000;
      s.tcp_twin = "monitor_fanout_tcp";
    } else {
      // Writer + 3 viewers = 4 connections, no more than the 4 cores the
      // benchmark was tuned on. TCP updates cost ~20x more wall time, so
      // browse ops come more often to keep a p95's worth of opens.
      s.tcp = true;
      s.viewers = 3;
      s.updates_per_browse = 16;
      s.warmup_ops = 200;
      s.vtime_ops = 300;
    }
  } else if (name == "browse_cold") {
    // ~9.7k hardware components in 48 racks: their pages are over twice the
    // buffer pool, and the 4 MiB client cache holds about 16 racks' objects.
    // Racks are chosen uniformly, so about two opens in three miss the
    // client cache in the drill-down; under skew the hit share nears one
    // half and the median open flips between the two modes from seed to
    // seed.
    s.net.num_nodes = 8;
    s.net.sites = 2;
    s.net.buildings_per_site = 3;
    s.net.racks_per_building = 8;
    s.net.devices_per_rack = 8;
    s.net.cards_per_device = 3;
    s.net.ports_per_card = 7;
    s.zipf_theta = 0;
    s.device_updates_per_browse = 4;
    s.warmup_ops = 4;
    s.vtime_ops = 24;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

namespace {

// Transport threads, fixed rather than sized from the core count so thread
// placement stays comparable between runs and machines.
constexpr int kTcpIoThreads = 1;
constexpr int kTcpWorkerThreads = 2;
constexpr ClientId kWriterId = 50;
constexpr ClientId kFirstSessionId = 100;
// Wait for a TCP notification this long before counting the update failed.
constexpr int64_t kPumpDeadlineNs = 5'000'000'000;

/// Ground truth of one rack, read from the server heap at set-up.
struct RackTruth {
  Oid rack;
  std::vector<Oid> devices;  ///< sorted
  std::vector<Oid> subtree;  ///< devices, cards and ports, sorted
};

/// A session showing an object, and the display objects it shows it in.
struct Subscriber {
  InteractiveSession* session = nullptr;
  std::vector<DisplayObject*> dos;
};

double Number(const Result<Value>& v) {
  return v.ok() ? v.value().AsNumber() : 0.0;
}

std::vector<Oid> Children(const idba::SchemaCatalog& catalog,
                          const DatabaseObject& obj) {
  auto v = obj.GetByName(catalog, "Children");
  if (!v.ok() || v.value().type() != idba::ValueType::kOidList) return {};
  return v.value().AsOidList();
}

/// Bucket-count deltas of the named global histograms over one phase.
class BucketWindow {
 public:
  explicit BucketWindow(const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      idba::Histogram* h = idba::GlobalMetrics().GetHistogram(name);
      open_.emplace_back(name, h, h->BucketCounts());
    }
  }
  void AddTo(LayerData* layers) const {
    for (const auto& [name, h, before] : open_) {
      std::vector<uint64_t> after = h->BucketCounts();
      std::vector<uint64_t>& acc = layers->buckets[name];
      acc.resize(after.size(), 0);
      for (size_t b = 0; b < after.size(); ++b) acc[b] += after[b] - before[b];
    }
  }

 private:
  std::vector<std::tuple<std::string, idba::Histogram*, std::vector<uint64_t>>>
      open_;
};

std::vector<std::string> NetHistogramNames() {
  std::vector<std::string> names = {"net.loop.lag_us",
                                     "worker.dispatch_lag_us"};
  for (const char* method :
       {"Begin", "LockForRead", "Fetch", "Put", "Commit", "FetchCurrent"}) {
    for (const char* part : {"queue_us", "execute_us", "network_us"}) {
      names.push_back(std::string("rpc.") + method + "." + part);
    }
  }
  return names;
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t GlobalCount(const char* name) {
  return idba::GlobalMetrics().GetCounter(name)->Get();
}

class World {
 public:
  World(const WorkloadSpec& spec, uint64_t seed, bool traced)
      : spec_(spec), traced_(traced), rng_(seed ^ 0x9E3779B97F4A7C15ULL),
        seed_(seed) {}

  ~World() {
    // Sessions close their views (D-lock releases travel through the
    // transport) before the server side goes away.
    sessions_.clear();
    writer_.reset();
    if (transport_) transport_->Stop();
  }

  Status Build() {
    dep_ = std::make_unique<idba::Deployment>(idba::DeploymentOptions{});
    idba::NmsConfig net = spec_.net;
    net.seed = seed_;
    IDBA_ASSIGN_OR_RETURN(db_, idba::PopulateNms(&dep_->server(), net));
    IDBA_ASSIGN_OR_RETURN(
        dcs_, idba::RegisterNmsDisplayClasses(&dep_->display_schema(),
                                              dep_->server().schema(),
                                              db_.schema));
    IDBA_RETURN_NOT_OK(VaryRecordSizes());
    IDBA_RETURN_NOT_OK(ReadRacks());
    link_zipf_ = std::make_unique<idba::ZipfGenerator>(db_.link_oids.size(),
                                                       spec_.zipf_theta);
    rack_zipf_ = std::make_unique<idba::ZipfGenerator>(racks_.size(),
                                                       spec_.zipf_theta);
    if (spec_.tcp) {
      idba::TransportServerOptions topts;
      topts.io_threads = kTcpIoThreads;
      topts.worker_threads = kTcpWorkerThreads;
      transport_ = std::make_unique<idba::TransportServer>(
          &dep_->server(), &dep_->dlm(), &dep_->bus(), &dep_->meter(), topts);
      IDBA_RETURN_NOT_OK(transport_->Start());
    }
    DisplayLockService* unused = nullptr;
    IDBA_ASSIGN_OR_RETURN(writer_, NewClient(kWriterId, &unused));
    int sessions = std::max(spec_.viewers, 1);
    for (int v = 0; v < sessions; ++v) {
      DisplayLockService* locks = nullptr;
      IDBA_ASSIGN_OR_RETURN(std::unique_ptr<ClientApi> client,
                            NewClient(kFirstSessionId + v, &locks));
      sessions_.push_back(std::make_unique<InteractiveSession>(
          std::move(client), locks, spec_.tcp ? nullptr : &dep_->bus()));
    }
    link_subscribers_.assign(db_.link_oids.size(), {});
    for (int v = 0; v < spec_.viewers; ++v) {
      IDBA_RETURN_NOT_OK(OpenLinkDisplays(v));
    }
    return Status::OK();
  }

  int transport_io_threads() const {
    return transport_ ? transport_->io_threads() : 0;
  }
  int transport_worker_threads() const {
    return transport_ ? transport_->worker_threads() : 0;
  }

  /// Runs op number `index` of the workload's schedule.
  bool RunOp(uint64_t index, Samples* samples, std::string* why) {
    if (spec_.updates_per_browse > 0 &&
        index % (spec_.updates_per_browse + 1) !=
            static_cast<uint64_t>(spec_.updates_per_browse)) {
      size_t link = link_zipf_->Next(rng_);
      return Update(db_.link_oids[link], link_subscribers_[link], samples, why);
    }
    size_t session = browses_ % sessions_.size();
    ++browses_;
    return Browse(sessions_[session].get(), racks_[rack_zipf_->Next(rng_)],
                  samples, why);
  }

  /// Pumps every session dry, then checks each view against the server.
  /// Returns the number of failed checks.
  uint64_t DrainAndCheck(std::vector<std::string>* failures) {
    for (auto& s : sessions_) {
      if (spec_.tcp) {
        while (s->dlc().PumpWait(20) > 0) {
        }
      } else {
        s->PumpOnce();
      }
    }
    uint64_t failed = 0;
    for (auto& s : sessions_) {
      for (ActiveView* view : s->views()) {
        std::string why = CheckView(view);
        if (!why.empty()) {
          ++failed;
          Note(failures, std::move(why));
        }
      }
    }
    return failed;
  }

  /// Empty when every display object of `view` shows its source's latest
  /// committed version and value; otherwise what is wrong.
  std::string CheckView(ActiveView* view) {
    ScopedSpan span("bench.check");
    size_t stale = view->CountStaleObjects();
    if (stale != 0) {
      return view->name() + ": " + std::to_string(stale) +
             " stale display objects";
    }
    const idba::SchemaCatalog& catalog = dep_->server().schema();
    for (DisplayObject* dob : view->display_objects()) {
      auto latest = dep_->server().heap().Read(dob->sources()[0]);
      if (!latest.ok() ||
          Number(latest.value().GetByName(catalog, "Utilization")) !=
              Number(dob->Get("Utilization"))) {
        return view->name() + ": displayed " + dob->sources()[0].ToString() +
               " differs from the server's latest image";
      }
    }
    return "";
  }

  /// Adds the current value of every layer counter, with `sign` -1 at the
  /// start of a phase and +1 at its end.
  void AddCounters(double sign, LayerData* layers) {
    idba::DatabaseServer& server = dep_->server();
    auto add = [&](const char* key, double v) {
      layers->counts[key] += sign * v;
    };
    add("commits", server.commits());
    add("lock_grants", server.lock_manager().grants());
    add("lock_waits", server.lock_manager().waits());
    add("callbacks", server.callback_manager().callbacks_issued());
    add("wal_bytes", server.wal().appended_bytes());
    add("wal_fsyncs", server.wal().fsyncs());
    add("pool_hits", server.buffer_pool().hits());
    add("pool_misses", server.buffer_pool().misses());
    add("dlm_notifications", dep_->dlm().update_notifications());
    for (auto& s : sessions_) {
      add("dlc_notifications", s->dlc().notifications_received());
      add("dlc_dispatches", s->dlc().local_dispatches());
    }
    if (transport_) {
      add("fanout_encodes", transport_->fanout_encodes());
      add("fanout_reuses", transport_->fanout_reuses());
    }
  }

  void set_layers(LayerData* layers) { layers_ = layers; }

 private:
  Result<std::unique_ptr<ClientApi>> NewClient(ClientId id,
                                               DisplayLockService** locks) {
    // Eviction reports stay off: with them, a query whose result includes
    // an object the same batch evicts (an old copy at the LRU head) and then
    // re-caches sends NoteEvicted after the server registered the new copy,
    // so later commits skip its callback and the display refreshes from a
    // stale copy. browse_cold fills the client cache and hit this on ~3% of
    // ops; until a report can no longer cancel the registration of a copy
    // the same batch re-caches, the server keeps every registration
    // (callbacks to dropped copies are no-ops).
    std::unique_ptr<ClientApi> client;
    if (spec_.tcp) {
      idba::RemoteClientOptions ropts;
      ropts.report_evictions = false;
      IDBA_ASSIGN_OR_RETURN(
          std::unique_ptr<idba::RemoteDatabaseClient> remote,
          idba::RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(),
                                              id, ropts));
      *locks = remote.get();
      client = std::move(remote);
    } else {
      idba::DatabaseClientOptions copts;
      copts.report_evictions = false;
      *locks = &dep_->dlm();
      client = std::make_unique<idba::DatabaseClient>(
          &dep_->server(), id, &dep_->meter(), &dep_->bus(), copts);
    }
    if (traced_) {
      client = std::make_unique<TracedClient>(std::move(client));
      lock_wrappers_.push_back(std::make_unique<TracedLocks>(*locks));
      *locks = lock_wrappers_.back().get();
    }
    return Result<std::unique_ptr<ClientApi>>(std::move(client));
  }

  /// Record size is an input property: every link and device gets a note
  /// of seed-dependent length, so the bytes each update and view open
  /// moves (and their virtual cost) differ from seed to seed.
  Status VaryRecordSizes() {
    idba::DatabaseServer& server = dep_->server();
    const idba::SchemaCatalog& catalog = server.schema();
    idba::Rng rng(seed_ * 0x2545F4914F6CDD1DULL + 1);
    std::vector<Oid> oids = db_.link_oids;
    oids.insert(oids.end(), db_.device_oids.begin(), db_.device_oids.end());
    idba::TxnId txn = 0;
    size_t pending = 0;
    for (Oid oid : oids) {
      if (txn == 0) txn = server.Begin(/*client=*/0);
      IDBA_ASSIGN_OR_RETURN(DatabaseObject obj, server.heap().Read(oid));
      IDBA_RETURN_NOT_OK(obj.SetByName(
          catalog, "Notes", std::string(16 + rng.NextBelow(240), 'n')));
      IDBA_RETURN_NOT_OK(server.Put(0, txn, std::move(obj), nullptr));
      if (++pending == 128) {
        IDBA_RETURN_NOT_OK(server.Commit(0, txn, nullptr).status());
        txn = 0;
        pending = 0;
      }
    }
    if (txn != 0) IDBA_RETURN_NOT_OK(server.Commit(0, txn, nullptr).status());
    return Status::OK();
  }

  Status ReadRacks() {
    const idba::SchemaCatalog& catalog = dep_->server().schema();
    auto read = [&](Oid oid) { return dep_->server().heap().Read(oid); };
    // root -> sites -> buildings -> racks
    std::vector<Oid> level = {db_.hardware_root};
    for (int depth = 0; depth < 3; ++depth) {
      std::vector<Oid> next;
      for (Oid oid : level) {
        IDBA_ASSIGN_OR_RETURN(DatabaseObject obj, read(oid));
        for (Oid child : Children(catalog, obj)) next.push_back(child);
      }
      level = std::move(next);
    }
    for (Oid rack_oid : level) {
      RackTruth rack;
      rack.rack = rack_oid;
      IDBA_ASSIGN_OR_RETURN(DatabaseObject rack_obj, read(rack_oid));
      std::vector<Oid> frontier = Children(catalog, rack_obj);
      rack.devices = frontier;
      while (!frontier.empty()) {
        Oid oid = frontier.back();
        frontier.pop_back();
        rack.subtree.push_back(oid);
        IDBA_ASSIGN_OR_RETURN(DatabaseObject obj, read(oid));
        for (Oid child : Children(catalog, obj)) frontier.push_back(child);
      }
      std::sort(rack.devices.begin(), rack.devices.end());
      std::sort(rack.subtree.begin(), rack.subtree.end());
      racks_.push_back(std::move(rack));
    }
    if (racks_.empty()) return Status::Internal("no racks populated");
    return Status::OK();
  }

  /// Viewer v of V shows link i in its color display when i mod V is v or
  /// v+1, and in its width display when it is v or v+2: every link is on
  /// three viewers' screens, twice on one of them.
  Status OpenLinkDisplays(int v) {
    InteractiveSession* s = sessions_[v].get();
    const int n = spec_.viewers;
    // One scan warms the client cache, so materializing costs no fetches.
    IDBA_RETURN_NOT_OK(s->client().ScanClass(db_.schema.link).status());
    ActiveView* color = s->CreateView("color");
    ActiveView* width = s->CreateView("width");
    const idba::DisplayClassDef* color_dc =
        dep_->display_schema().Find(dcs_.color_coded_link);
    const idba::DisplayClassDef* width_dc =
        dep_->display_schema().Find(dcs_.width_coded_link);
    s->dlc().BeginLockBatch();
    for (size_t i = 0; i < db_.link_oids.size(); ++i) {
      int r = static_cast<int>(i % n);
      Oid link = db_.link_oids[i];
      if (r == v || r == (v + 1) % n) {
        IDBA_RETURN_NOT_OK(color->Materialize(color_dc, {link}).status());
      }
      if (r == v || r == (v + 2) % n) {
        IDBA_RETURN_NOT_OK(width->Materialize(width_dc, {link}).status());
      }
    }
    IDBA_RETURN_NOT_OK(s->dlc().EndLockBatch());
    for (size_t i = 0; i < db_.link_oids.size(); ++i) {
      std::vector<DisplayObject*> dos =
          s->display_cache().FindBySource(db_.link_oids[i]);
      if (!dos.empty()) link_subscribers_[i].push_back({s, std::move(dos)});
    }
    return Status::OK();
  }

  /// Pumps `sub` until each of its displays of the updated object has
  /// refreshed past `before`.
  bool PumpUntilRefreshed(const Subscriber& sub,
                          const std::vector<uint64_t>& before, size_t at) {
    ScopedSpan span("core.pump");
    auto refreshed = [&] {
      for (size_t i = 0; i < sub.dos.size(); ++i) {
        if (sub.dos[i]->refresh_count() <= before[at + i]) return false;
      }
      return true;
    };
    if (!spec_.tcp) {
      sub.session->PumpOnce();
      return refreshed();
    }
    const int64_t deadline = NowNs() + kPumpDeadlineNs;
    while (!refreshed()) {
      int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) return false;
      sub.session->dlc().PumpWait(left_ms);
    }
    return true;
  }

  bool Update(Oid oid, const std::vector<Subscriber>& subs, Samples* samples,
              std::string* why) {
    ClientApi& w = *writer_;
    const idba::SchemaCatalog& catalog = w.schema();
    std::vector<uint64_t> before;
    for (const Subscriber& sub : subs) {
      for (DisplayObject* dob : sub.dos) before.push_back(dob->refresh_count());
    }
    uint64_t rpcs0 = w.rpcs_issued();
    uint64_t frames0 = 0, bytes0 = 0;
    if (layers_ != nullptr && transport_) {
      frames0 = GlobalCount("net.conn.frames_in") +
                GlobalCount("net.conn.frames_out");
      bytes0 = transport_->bytes_received() + transport_->bytes_sent();
    }

    ScopedSpan op("op.update");
    const int64_t t0 = NowNs();
    const VTime v0 = w.clock().Now();
    Result<idba::TxnId> txn = w.BeginTxn();
    if (!txn.ok()) return Fail(why, "begin: " + txn.status().ToString());
    auto obj = w.Read(txn.value(), oid);
    if (!obj.ok()) {
      (void)w.Abort(txn.value());
      return Fail(why, "read: " + obj.status().ToString());
    }
    DatabaseObject image = std::move(obj).value();
    double u = Number(image.GetByName(catalog, "Utilization"));
    u = std::clamp(u + (rng_.NextDouble() * 2 - 1) * 0.15, 0.0, 1.0);
    Status st = image.SetByName(catalog, "Utilization", Value(u));
    if (st.ok()) st = w.Write(txn.value(), std::move(image));
    if (!st.ok()) {
      (void)w.Abort(txn.value());
      return Fail(why, "write: " + st.ToString());
    }
    const int64_t tc = NowNs();
    const VTime vc = w.clock().Now();
    auto commit = w.Commit(txn.value());
    const int64_t t1 = NowNs();
    const VTime v1 = w.clock().Now();
    if (!commit.ok()) return Fail(why, "commit: " + commit.status().ToString());

    VTime v2 = vc;
    size_t at = 0;
    bool all_refreshed = true;
    for (const Subscriber& sub : subs) {
      all_refreshed &= PumpUntilRefreshed(sub, before, at);
      at += sub.dos.size();
      v2 = std::max(v2, sub.session->client().clock().Now());
    }
    const int64_t t2 = NowNs();

    if (samples != nullptr) {
      samples->update_txn_us.push_back((t1 - t0) / 1e3);
      samples->update_txn_vms.push_back(static_cast<double>(v1 - v0) /
                                        idba::kVMillisecond);
      if (!subs.empty()) {
        samples->commit_to_display_us.push_back((t2 - tc) / 1e3);
        samples->commit_to_display_vms.push_back(static_cast<double>(v2 - vc) /
                                                 idba::kVMillisecond);
      }
    }
    if (layers_ != nullptr) {
      auto& c = layers_->counts;
      c["updates"] += 1;
      c["writer_rpcs"] += static_cast<double>(w.rpcs_issued() - rpcs0);
      c["refreshes"] += static_cast<double>(before.size());
      if (transport_) {
        c["update_frames"] += static_cast<double>(
            GlobalCount("net.conn.frames_in") +
            GlobalCount("net.conn.frames_out") - frames0);
        c["update_wire_bytes"] += static_cast<double>(
            transport_->bytes_received() + transport_->bytes_sent() - bytes0);
      }
    }
    if (!all_refreshed) {
      return Fail(why, "update of " + oid.ToString() +
                           " did not refresh every display showing it");
    }
    return true;
  }

  /// Materializes `obj` and, through ReadCurrent, its whole subtree.
  Status MaterializeSubtree(ActiveView* view, ClientApi& client,
                            const DatabaseObject& obj, idba::TreemapNode* tnode,
                            idba::PdqNode* pnode,
                            std::unordered_map<uint64_t, DisplayObject*>* dos) {
    const idba::DisplayClassDef* tile_dc =
        dep_->display_schema().Find(dcs_.hardware_tile);
    IDBA_ASSIGN_OR_RETURN(DisplayObject * dob,
                          view->Materialize(tile_dc, {obj.oid()}));
    (*dos)[obj.oid().value] = dob;
    auto name = dob->Get("Name");
    tnode->label = pnode->label = name.ok() ? name.value().AsString() : "";
    tnode->tag = pnode->tag = obj.oid().value;
    tnode->weight = Number(dob->Get("Capacity"));
    pnode->attributes["Utilization"] = Number(dob->Get("Utilization"));
    pnode->attributes["Status"] = Number(dob->Get("Status"));
    for (Oid child : Children(client.schema(), obj)) {
      IDBA_ASSIGN_OR_RETURN(DatabaseObject child_obj,
                            client.ReadCurrent(child));
      tnode->children.emplace_back();
      pnode->children.emplace_back();
      IDBA_RETURN_NOT_OK(MaterializeSubtree(view, client, child_obj,
                                            &tnode->children.back(),
                                            &pnode->children.back(), dos));
    }
    return Status::OK();
  }

  Status OpenRackView(InteractiveSession* s, const RackTruth& rack,
                      ActiveView* view, std::vector<Oid>* queried) {
    ScopedSpan span("core.view_open");
    ClientApi& client = s->client();
    idba::ObjectQuery query;
    query.cls = db_.schema.device;
    query.conjuncts.push_back({"Parent", idba::CompareOp::kEq, Value(rack.rack)});
    IDBA_ASSIGN_OR_RETURN(std::vector<DatabaseObject> devices,
                          client.RunQuery(query));
    idba::TreemapNode tree;
    idba::PdqNode pdq;
    tree.label = pdq.label = "rack";
    std::unordered_map<uint64_t, DisplayObject*> dos;
    s->dlc().BeginLockBatch();
    Status st = Status::OK();
    for (const DatabaseObject& device : devices) {
      queried->push_back(device.oid());
      tree.children.emplace_back();
      pdq.children.emplace_back();
      st = MaterializeSubtree(view, client, device, &tree.children.back(),
                              &pdq.children.back(), &dos);
      if (!st.ok()) break;
    }
    Status end = s->dlc().EndLockBatch();
    IDBA_RETURN_NOT_OK(st);
    IDBA_RETURN_NOT_OK(end);
    if (layers_ != nullptr) {
      layers_->counts["query_rows_examined"] += db_.device_oids.size();
      layers_->counts["query_rows_returned"] += devices.size();
    }
    std::vector<idba::TreemapRect> rects;
    {
      ScopedSpan layout("viz.treemap");
      IDBA_ASSIGN_OR_RETURN(rects,
                            idba::LayoutTreemap(tree, idba::Rect{0, 0, 120, 40}));
    }
    for (const idba::TreemapRect& r : rects) {
      auto it = dos.find(r.tag);
      if (it == dos.end()) continue;
      IDBA_RETURN_NOT_OK(it->second->SetGui("RectX", Value(r.rect.x)));
      IDBA_RETURN_NOT_OK(it->second->SetGui("RectY", Value(r.rect.y)));
      IDBA_RETURN_NOT_OK(it->second->SetGui("RectW", Value(r.rect.w)));
      IDBA_RETURN_NOT_OK(it->second->SetGui("RectH", Value(r.rect.h)));
    }
    {
      ScopedSpan layout("viz.pdq");
      // Device-level dynamic query: hide hot devices' subtrees.
      IDBA_ASSIGN_OR_RETURN(
          idba::PdqLayout layout_out,
          idba::LayoutPdqTree(pdq, {{1, "Utilization", 0.0, 0.8}}));
      frame_checksum_ += layout_out.visible_count;
    }
    return Status::OK();
  }

  /// Repaints the view from the display cache onto a character canvas.
  void Redraw(ActiveView* view) {
    ScopedSpan span("core.redraw");
    canvas_.Clear();
    for (DisplayObject* dob : view->display_objects()) {
      idba::Rect r{Number(dob->Get("RectX")), Number(dob->Get("RectY")),
                   Number(dob->Get("RectW")), Number(dob->Get("RectH"))};
      auto color = dob->Get("Color");
      char mark = color.ok() && !color.value().AsString().empty()
                      ? color.value().AsString()[0]
                      : '+';
      canvas_.Box(r, mark);
    }
    frame_checksum_ += canvas_.ToString().size();
  }

  bool Browse(InteractiveSession* s, const RackTruth& rack, Samples* samples,
              std::string* why) {
    ClientApi& client = s->client();
    idba::BufferPool& pool = dep_->server().buffer_pool();
    const uint64_t misses0 = pool.misses(), evictions0 = pool.evictions();
    const uint64_t chits0 = client.cache().hits(),
                   cmisses0 = client.cache().misses();

    ScopedSpan op("op.browse");
    const int64_t t0 = NowNs();
    const VTime v0 = client.clock().Now();
    ActiveView* view = s->CreateView("rack");
    std::vector<Oid> queried;
    Status st = OpenRackView(s, rack, view, &queried);
    const int64_t t1 = NowNs();
    const VTime v1 = client.clock().Now();
    const uint64_t dhits0 = s->display_cache().hits();
    if (st.ok()) Redraw(view);
    const int64_t t2 = NowNs();

    if (layers_ != nullptr) {
      auto& c = layers_->counts;
      c["browses"] += 1;
      c["open_page_misses"] += static_cast<double>(pool.misses() - misses0);
      c["open_page_evictions"] +=
          static_cast<double>(pool.evictions() - evictions0);
      c["open_cache_hits"] += static_cast<double>(client.cache().hits() - chits0);
      c["open_cache_misses"] +=
          static_cast<double>(client.cache().misses() - cmisses0);
      c["redraw_display_cache_hits"] +=
          static_cast<double>(s->display_cache().hits() - dhits0);
    }
    bool ok = st.ok();
    if (!ok) {
      Fail(why, "open rack view: " + st.ToString());
    } else {
      if (samples != nullptr) {
        samples->view_open_ms.push_back((t1 - t0) / 1e6);
        samples->view_open_vms.push_back(static_cast<double>(v1 - v0) /
                                         idba::kVMillisecond);
        samples->redraw_us.push_back((t2 - t1) / 1e3);
      }
      std::sort(queried.begin(), queried.end());
      std::vector<Oid> shown;
      for (DisplayObject* dob : view->display_objects()) {
        shown.push_back(dob->sources()[0]);
      }
      std::sort(shown.begin(), shown.end());
      if (queried != rack.devices || shown != rack.subtree) {
        ok = Fail(why, "rack view of " + rack.rack.ToString() +
                           " does not show exactly that rack's devices");
      }
    }
    for (int k = 0; ok && k < spec_.device_updates_per_browse; ++k) {
      Oid device = rack.devices[rng_.NextBelow(rack.devices.size())];
      std::vector<Subscriber> subs = {{s, s->display_cache().FindBySource(device)}};
      ok = Update(device, subs, samples, why);
    }
    if (ok) {
      std::string wrong = CheckView(view);
      if (!wrong.empty()) ok = Fail(why, std::move(wrong));
    }
    {
      ScopedSpan close("core.view_close");
      Status closed = s->CloseView("rack");
      if (ok && !closed.ok()) ok = Fail(why, "close: " + closed.ToString());
    }
    return ok;
  }

  static bool Fail(std::string* why, std::string what) {
    if (why != nullptr && why->empty()) *why = std::move(what);
    return false;
  }

  static void Note(std::vector<std::string>* failures, std::string what) {
    if (failures->size() < 8) failures->push_back(std::move(what));
  }

  const WorkloadSpec& spec_;
  const bool traced_;
  idba::Rng rng_;
  const uint64_t seed_;
  LayerData* layers_ = nullptr;

  std::unique_ptr<idba::Deployment> dep_;
  idba::NmsDatabase db_;
  idba::NmsDisplayClasses dcs_;
  std::vector<RackTruth> racks_;
  std::unique_ptr<idba::ZipfGenerator> link_zipf_, rack_zipf_;
  std::unique_ptr<idba::TransportServer> transport_;
  // Declared before the sessions that call through them.
  std::vector<std::unique_ptr<TracedLocks>> lock_wrappers_;
  std::unique_ptr<ClientApi> writer_;
  std::vector<std::unique_ptr<InteractiveSession>> sessions_;
  std::vector<std::vector<Subscriber>> link_subscribers_;
  uint64_t browses_ = 0;

  idba::AsciiCanvas canvas_{120, 40};
  // Sums what each layout and redraw produced, so no step is dead code.
  uint64_t frame_checksum_ = 0;
};

}  // namespace

RoundOutcome RunRound(const WorkloadSpec& spec, uint64_t seed,
                      double measure_s, bool traced, Samples* samples,
                      LayerData* layers) {
  RoundOutcome out;
  const int64_t s0 = NowNs();
  auto world = std::make_unique<World>(spec, seed, traced);
  Status built = world->Build();
  out.setup_s = (NowNs() - s0) / 1e9;
  if (!built.ok()) {
    out.attempted = out.failed = 1;
    out.failures.push_back("set-up: " + built.ToString());
    return out;
  }
  out.transport_io_threads = world->transport_io_threads();
  out.transport_worker_threads = world->transport_worker_threads();

  uint64_t index = 0;
  auto run_op = [&](Samples* into) {
    std::string why;
    ++out.attempted;
    if (!world->RunOp(index++, into, &why)) {
      ++out.failed;
      if (out.failures.size() < 8) out.failures.push_back(why);
    }
  };
  // Warm-up ops are checked like measured ones but not sampled.
  for (int i = 0; i < spec.warmup_ops; ++i) run_op(nullptr);
  out.rss_after_warmup_mb = PeakRssMb();

  std::unique_ptr<BucketWindow> buckets;
  if (traced) {
    world->set_layers(layers);
    world->AddCounters(-1, layers);
    buckets = std::make_unique<BucketWindow>(NetHistogramNames());
    GlobalTracer().SetEnabled(true);
  }
  const int64_t end = NowNs() + static_cast<int64_t>(measure_s * 1e9);
  const uint64_t first = index;
  const uint64_t vtime_ops = static_cast<uint64_t>(spec.vtime_ops);
  size_t vtime_kept[3] = {0, 0, 0};
  while (NowNs() < end || index - first < vtime_ops) {
    run_op(samples);
    if (index - first == vtime_ops) {
      vtime_kept[0] = samples->commit_to_display_vms.size();
      vtime_kept[1] = samples->update_txn_vms.size();
      vtime_kept[2] = samples->view_open_vms.size();
    }
  }
  samples->commit_to_display_vms.resize(vtime_kept[0]);
  samples->update_txn_vms.resize(vtime_kept[1]);
  samples->view_open_vms.resize(vtime_kept[2]);
  if (traced) {
    GlobalTracer().SetEnabled(false);
    out.spans = GlobalTracer().TakeSpans();
    buckets->AddTo(layers);
    world->AddCounters(+1, layers);
    world->set_layers(nullptr);
  }

  uint64_t check_failures = world->DrainAndCheck(&out.failures);
  out.failed += check_failures;
  out.attempted += check_failures;
  return out;
}

}  // namespace perfbench
