#include "objectmodel/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/session.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"

namespace idba {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  PredicateTest() {
    cls_ = catalog_.DefineClass("Link").value();
    EXPECT_TRUE(catalog_.AddAttribute(cls_, "Utilization", ValueType::kDouble).ok());
    EXPECT_TRUE(catalog_.AddAttribute(cls_, "Hops", ValueType::kInt).ok());
    EXPECT_TRUE(catalog_.AddAttribute(cls_, "Name", ValueType::kString).ok());
    EXPECT_TRUE(catalog_.AddAttribute(cls_, "From", ValueType::kOid).ok());
    obj_ = DatabaseObject(Oid(1), cls_, 4);
    obj_.Set(0, Value(0.5));
    obj_.Set(1, Value(int64_t(3)));
    obj_.Set(2, Value("uplink"));
    obj_.Set(3, Value(Oid(42)));
  }
  bool M(const std::string& attr, CompareOp op, Value v) {
    return AttrPredicate{attr, op, std::move(v)}.Matches(catalog_, obj_);
  }

  SchemaCatalog catalog_;
  ClassId cls_;
  DatabaseObject obj_;
};

TEST_F(PredicateTest, NumericComparisonsWiden) {
  EXPECT_TRUE(M("Utilization", CompareOp::kGt, Value(0.4)));
  EXPECT_FALSE(M("Utilization", CompareOp::kGt, Value(0.5)));
  EXPECT_TRUE(M("Utilization", CompareOp::kGe, Value(0.5)));
  // Int attribute compared against a double value — widened.
  EXPECT_TRUE(M("Hops", CompareOp::kLe, Value(3.5)));
  EXPECT_TRUE(M("Hops", CompareOp::kEq, Value(int64_t(3))));
  EXPECT_TRUE(M("Hops", CompareOp::kNe, Value(int64_t(4))));
  EXPECT_FALSE(M("Hops", CompareOp::kLt, Value(int64_t(3))));
}

TEST_F(PredicateTest, StringComparisonsAreLexicographic) {
  EXPECT_TRUE(M("Name", CompareOp::kEq, Value("uplink")));
  EXPECT_TRUE(M("Name", CompareOp::kGt, Value("alpha")));
  EXPECT_FALSE(M("Name", CompareOp::kLt, Value("alpha")));
}

TEST_F(PredicateTest, OidSupportsEqualityOnly) {
  EXPECT_TRUE(M("From", CompareOp::kEq, Value(Oid(42))));
  EXPECT_TRUE(M("From", CompareOp::kNe, Value(Oid(7))));
  EXPECT_FALSE(M("From", CompareOp::kLt, Value(Oid(99))));
}

TEST_F(PredicateTest, UnknownAttributeNeverMatches) {
  EXPECT_FALSE(M("Nope", CompareOp::kEq, Value(1)));
}

TEST_F(PredicateTest, ConjunctionSemantics) {
  ObjectQuery q;
  q.cls = cls_;
  q.conjuncts = {{"Utilization", CompareOp::kGe, Value(0.4)},
                 {"Hops", CompareOp::kLt, Value(int64_t(10))}};
  EXPECT_TRUE(q.Matches(catalog_, obj_));
  q.conjuncts.push_back({"Name", CompareOp::kEq, Value("other")});
  EXPECT_FALSE(q.Matches(catalog_, obj_));
  ObjectQuery empty;
  empty.cls = cls_;
  EXPECT_TRUE(empty.Matches(catalog_, obj_));  // no conjuncts: match all
}

TEST_F(PredicateTest, WireBytesGrowsWithConjuncts) {
  ObjectQuery q;
  q.cls = cls_;
  size_t base = q.WireBytes();
  q.conjuncts.push_back({"Utilization", CompareOp::kGe, Value(0.4)});
  EXPECT_GT(q.WireBytes(), base);
}

// --- End-to-end query execution ------------------------------------------

class QueryExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<Deployment>();
    NmsConfig config;
    config.num_nodes = 12;
    db_ = PopulateNms(&deployment_->server(), config).value();
    dcs_ = RegisterNmsDisplayClasses(&deployment_->display_schema(),
                                     deployment_->server().schema(), db_.schema)
               .value();
  }
  std::unique_ptr<Deployment> deployment_;
  NmsDatabase db_;
  NmsDisplayClasses dcs_;
};

TEST_F(QueryExecutionTest, ServerFiltersBeforeShipping) {
  auto session = deployment_->NewSession(100);
  ObjectQuery q;
  q.cls = db_.schema.link;
  q.conjuncts = {{"Utilization", CompareOp::kGe, Value(0.5)}};
  auto hot = session->client().RunQuery(q);
  ASSERT_TRUE(hot.ok());
  const SchemaCatalog& cat = deployment_->server().schema();
  size_t expected = 0;
  for (Oid oid : db_.link_oids) {
    auto link = deployment_->server().heap().Read(oid).value();
    if (link.GetByName(cat, "Utilization").value().AsNumber() >= 0.5) ++expected;
  }
  EXPECT_EQ(hot.value().size(), expected);
  EXPECT_GT(expected, 0u);
  EXPECT_LT(expected, db_.link_oids.size());
  // Only matches entered the client cache.
  EXPECT_EQ(session->client().cache().entry_count(), expected);
}

TEST_F(QueryExecutionTest, SubclassQueriesCoverHierarchy) {
  auto session = deployment_->NewSession(100);
  ObjectQuery q;
  q.cls = db_.schema.hardware_component;
  q.include_subclasses = true;
  q.conjuncts = {{"Status", CompareOp::kEq, Value(int64_t(1))}};
  auto up = session->client().RunQuery(q);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value().size(), db_.all_hardware_oids.size());
}

TEST_F(QueryExecutionTest, ViewPopulatedFromQueryTracksOnlyMatches) {
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("hot-links");
  ObjectQuery q;
  q.cls = db_.schema.link;
  q.conjuncts = {{"Utilization", CompareOp::kGe, Value(0.5)}};
  auto dobs = view->PopulateFromQuery(
      deployment_->display_schema().Find(dcs_.color_coded_link), q);
  ASSERT_TRUE(dobs.ok());
  ASSERT_GT(dobs.value().size(), 0u);
  // Display locks held exactly on the matches.
  size_t locked = 0;
  for (Oid oid : db_.link_oids) {
    locked += deployment_->dlm().holder_count(oid);
  }
  EXPECT_EQ(locked, dobs.value().size());

  // An update to a displayed link refreshes; to a non-displayed one, no
  // notification at all.
  const SchemaCatalog& cat = deployment_->server().schema();
  Oid shown = dobs.value()[0]->sources()[0];
  Oid hidden = kNullOid;
  for (Oid oid : db_.link_oids) {
    if (deployment_->dlm().holder_count(oid) == 0) hidden = oid;
  }
  ASSERT_FALSE(hidden.IsNull());
  for (Oid target : {shown, hidden}) {
    TxnId t = writer->client().Begin();
    DatabaseObject link = writer->client().Read(t, target).value();
    ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(0.99)).ok());
    ASSERT_TRUE(writer->client().Write(t, std::move(link)).ok());
    ASSERT_TRUE(writer->client().Commit(t).ok());
  }
  EXPECT_EQ(viewer->client().inbox().pending(), 1u);  // only `shown`
  viewer->PumpOnce();
  EXPECT_EQ(view->refreshes(), 1u);
}

TEST_F(QueryExecutionTest, QueryChargesVirtualTime) {
  auto session = deployment_->NewSession(100);
  VTime before = session->client().clock().Now();
  ObjectQuery q;
  q.cls = db_.schema.link;
  ASSERT_TRUE(session->client().RunQuery(q).ok());
  EXPECT_GT(session->client().clock().Now(), before);
}

// --- Queries answered from the reference index --------------------------

class ReferenceQueryTest : public QueryExecutionTest {
 protected:
  DatabaseServer& server() { return deployment_->server(); }

  std::vector<Oid> Extent(ClassId cls) { return server().heap().ScanClass(cls).value(); }

  /// What ExecuteQuery returns, and how many objects it read to answer.
  std::vector<DatabaseObject> Run(const ObjectQuery& q, uint64_t* examined = nullptr) {
    Counter* rows = GlobalMetrics().GetCounter("query.rows.examined");
    const uint64_t before = rows->Get();
    ServerCallInfo info;
    auto out = server().ExecuteQuery(/*client=*/100, q, &info);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (examined != nullptr) *examined = rows->Get() - before;
    return out.ok() ? out.value() : std::vector<DatabaseObject>{};
  }

  /// The same query by brute force over every object in the heap, in the
  /// order ExecuteQuery promises: by class id, then ascending OID.
  std::vector<DatabaseObject> BruteForce(const ObjectQuery& q) {
    const SchemaCatalog& cat = server().schema();
    std::vector<DatabaseObject> out;
    for (Oid oid : server().heap().AllOids()) {
      DatabaseObject obj = server().heap().Read(oid).value();
      bool in_class = q.include_subclasses ? cat.IsA(obj.class_id(), q.cls)
                                           : obj.class_id() == q.cls;
      if (in_class && q.Matches(cat, obj)) out.push_back(std::move(obj));
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.class_id() < b.class_id();
    });
    return out;
  }

  static ObjectQuery ByParent(ClassId cls, Oid parent, bool subclasses = false) {
    ObjectQuery q;
    q.cls = cls;
    q.include_subclasses = subclasses;
    q.conjuncts = {{"Parent", CompareOp::kEq, Value(parent)}};
    return q;
  }
};

TEST_F(ReferenceQueryTest, EveryParentQueryMatchesBruteForce) {
  const NmsSchema& s = db_.schema;
  std::vector<Oid> parents = Extent(s.rack);
  for (Oid b : Extent(s.building)) parents.push_back(b);
  parents.push_back(kNullOid);
  size_t nonempty = 0;
  for (Oid parent : parents) {
    for (const ObjectQuery& q :
         {ByParent(s.device, parent), ByParent(s.rack, parent),
          ByParent(s.hardware_component, parent, /*subclasses=*/true)}) {
      uint64_t examined = 0;
      std::vector<DatabaseObject> got = Run(q, &examined);
      EXPECT_EQ(got, BruteForce(q)) << "class " << q.cls << " parent " << parent.value;
      // Served from the index: only the matches were read.
      EXPECT_EQ(examined, got.size());
      nonempty += got.empty() ? 0 : 1;
    }
  }
  // Every rack has devices, every building racks, and the root has no parent.
  EXPECT_EQ(nonempty, 2 * parents.size() - 1);
}

TEST_F(ReferenceQueryTest, SubclassQueryCoversEveryClassWithTheAttribute) {
  const NmsSchema& s = db_.schema;
  Oid site = db_.site_oids[0];
  std::vector<DatabaseObject> got = Run(ByParent(s.hardware_component, site, true));
  ASSERT_EQ(got.size(), static_cast<size_t>(db_.config.buildings_per_site));
  for (const DatabaseObject& obj : got) EXPECT_EQ(obj.class_id(), s.building);
  EXPECT_EQ(Run(ByParent(s.hardware_component, site)).size(), 0u);  // exact class
  // The root is the one HardwareComponent without a parent.
  std::vector<DatabaseObject> roots = Run(ByParent(s.hardware_component, kNullOid, true));
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].oid(), db_.hardware_root);
}

TEST_F(ReferenceQueryTest, OtherConjunctsStillFilterTheCandidates) {
  const NmsSchema& s = db_.schema;
  std::vector<Oid> racks = Extent(s.rack);
  ASSERT_GE(racks.size(), 2u);
  // A second OID conjunct on the same attribute: no device has two parents.
  ObjectQuery both = ByParent(s.device, racks[0]);
  both.conjuncts.push_back({"Parent", CompareOp::kEq, Value(racks[1])});
  EXPECT_TRUE(Run(both).empty());
  // Two reference attributes: the candidates come from From, To filters.
  const SchemaCatalog& cat = server().schema();
  DatabaseObject link = server().heap().Read(db_.link_oids[0]).value();
  ObjectQuery ends;
  ends.cls = s.link;
  ends.conjuncts = {{"From", CompareOp::kEq, link.GetByName(cat, "From").value()},
                    {"To", CompareOp::kEq, link.GetByName(cat, "To").value()}};
  std::vector<DatabaseObject> got = Run(ends);
  EXPECT_EQ(got, BruteForce(ends));
  ASSERT_FALSE(got.empty());
  // The reference conjunct need not come first.
  DatabaseObject device = server().heap().Read(db_.device_oids[1]).value();
  ObjectQuery named;
  named.cls = s.device;
  named.conjuncts = {{"Name", CompareOp::kEq, device.GetByName(cat, "Name").value()},
                     {"Parent", CompareOp::kEq, device.GetByName(cat, "Parent").value()}};
  uint64_t examined = 0;
  got = Run(named, &examined);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].oid(), device.oid());
  EXPECT_EQ(examined, static_cast<uint64_t>(db_.config.devices_per_rack));
}

TEST_F(ReferenceQueryTest, NonReferenceComparisonsUseTheExtent) {
  const NmsSchema& s = db_.schema;
  Oid rack = Extent(s.rack)[0];
  const uint64_t devices = Extent(s.device).size();
  // An int compared against an OID attribute never matches.
  ObjectQuery as_int;
  as_int.cls = s.device;
  as_int.conjuncts = {{"Parent", CompareOp::kEq, Value(static_cast<int64_t>(rack.value))}};
  uint64_t examined = 0;
  EXPECT_TRUE(Run(as_int, &examined).empty());
  EXPECT_EQ(examined, devices);
  // Inequality on a reference is answered by the extent scan.
  ObjectQuery ne = ByParent(s.device, rack);
  ne.conjuncts[0].op = CompareOp::kNe;
  std::vector<DatabaseObject> got = Run(ne, &examined);
  EXPECT_EQ(got, BruteForce(ne));
  EXPECT_EQ(got.size(), devices - db_.config.devices_per_rack);
  EXPECT_EQ(examined, devices);
}

TEST_F(ReferenceQueryTest, UnknownAttributeHasNoCandidates) {
  ObjectQuery q;
  q.cls = db_.schema.device;
  q.conjuncts = {{"Nope", CompareOp::kEq, Value(Extent(db_.schema.rack)[0])}};
  uint64_t examined = 1;
  EXPECT_TRUE(Run(q, &examined).empty());
  EXPECT_EQ(examined, 0u);
  // On a class that lacks the attribute, among subclasses that have it.
  ObjectQuery links;
  links.cls = db_.schema.link;
  links.conjuncts = {{"Parent", CompareOp::kEq, Value(kNullOid)}};
  EXPECT_TRUE(Run(links).empty());
}

TEST_F(ReferenceQueryTest, RackQueryTouchesNoMorePagesThanRows) {
  BufferPool& pool = server().buffer_pool();
  for (Oid rack : Extent(db_.schema.rack)) {
    const uint64_t before = pool.hits() + pool.misses();
    std::vector<DatabaseObject> rows = Run(ByParent(db_.schema.device, rack));
    const uint64_t touched = pool.hits() + pool.misses() - before;
    EXPECT_EQ(rows.size(), static_cast<size_t>(db_.config.devices_per_rack));
    EXPECT_LE(touched, rows.size()) << "rack " << rack.value;
  }
}

TEST_F(QueryExecutionTest, ScansAndQueriesSurviveConcurrentErases) {
  // A writer erases and re-inserts the devices of one rack in committed
  // transactions while a reader queries (by reference and by extent) and
  // scans the class. An object erased after a call's snapshot has left the
  // class: the call must skip it, not fail.
  const NmsSchema& s = db_.schema;
  const SchemaCatalog& cat = deployment_->server().schema();
  auto reader = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  DatabaseObject first = deployment_->server().heap().Read(db_.device_oids[0]).value();
  Value rack = first.GetByName(cat, "Parent").value();
  std::vector<Oid> churn;
  for (Oid oid : db_.device_oids) {
    DatabaseObject dev = deployment_->server().heap().Read(oid).value();
    if (dev.GetByName(cat, "Parent").value() == rack) churn.push_back(oid);
  }
  ASSERT_FALSE(churn.empty());

  std::atomic<bool> done{false};
  std::thread churner([&] {
    for (int i = 0; i < 300; ++i) {
      Oid& slot = churn[i % churn.size()];
      TxnId t = writer->client().Begin();
      DatabaseObject fresh = NewObject(cat, s.device, writer->client().AllocateOid());
      EXPECT_TRUE(fresh.SetByName(cat, "Parent", rack).ok());
      EXPECT_TRUE(writer->client().EraseObject(t, slot).ok());
      EXPECT_TRUE(writer->client().Insert(t, fresh).ok());
      EXPECT_TRUE(writer->client().Commit(t).ok());
      slot = fresh.oid();
    }
    done.store(true);
  });

  ObjectQuery by_ref;
  by_ref.cls = s.device;
  by_ref.conjuncts = {{"Parent", CompareOp::kEq, rack}};
  ObjectQuery by_extent;
  by_extent.cls = s.device;
  by_extent.conjuncts = {{"Status", CompareOp::kEq, Value(int64_t(1))}};
  int calls = 0, failures = 0;
  while (!done.load() || calls < 30) {
    for (auto result : {reader->client().RunQuery(by_ref),
                        reader->client().RunQuery(by_extent),
                        reader->client().ScanClass(s.device)}) {
      ++calls;
      if (!result.ok()) {
        ++failures;
        continue;
      }
      for (const DatabaseObject& obj : result.value()) {
        EXPECT_EQ(obj.class_id(), s.device);
      }
    }
  }
  churner.join();
  EXPECT_EQ(failures, 0) << "of " << calls << " calls";
}

}  // namespace
}  // namespace idba
