// M6 — Query-layer microbenchmarks: server-side predicate scan rates and
// the client-side cost of populating query-scoped views.

#include <benchmark/benchmark.h>

#include "bench/exp_common.h"

namespace idba {
namespace {

bench::Testbed* SharedTestbed() {
  static bench::Testbed* tb = [] {
    NmsConfig config;
    config.num_nodes = 128;
    config.sites = 2;
    config.racks_per_building = 3;
    auto* t = new bench::Testbed(bench::MakeTestbed({}, config));
    return t;
  }();
  return tb;
}

void BM_ScanClass(benchmark::State& state) {
  bench::Testbed* tb = SharedTestbed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tb->dep().server().heap().ScanClass(tb->db.schema.link));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tb->db.link_oids.size()));
}
BENCHMARK(BM_ScanClass);

void BM_ExecuteQuerySelective(benchmark::State& state) {
  bench::Testbed* tb = SharedTestbed();
  ObjectQuery q;
  q.cls = tb->db.schema.link;
  q.conjuncts = {{"Utilization", CompareOp::kGe, Value(0.9)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tb->dep().server().ExecuteQuery(0, q, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tb->db.link_oids.size()));
}
BENCHMARK(BM_ExecuteQuerySelective);

// A browse query ("devices whose Parent is rack R"): answered from the
// heap's reference index, so it reads the rack's devices, not the extent.
void BM_ExecuteQueryByReference(benchmark::State& state) {
  bench::Testbed* tb = SharedTestbed();
  ObjectQuery q;
  q.cls = tb->db.schema.device;
  DatabaseObject device =
      tb->dep().server().heap().Read(tb->db.device_oids[0]).value();
  q.conjuncts = {{"Parent", CompareOp::kEq,
                  device.GetByName(tb->dep().server().schema(), "Parent").value()}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb->dep().server().ExecuteQuery(0, q, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tb->db.config.devices_per_rack));
}
BENCHMARK(BM_ExecuteQueryByReference);

void BM_ExecuteQuerySubclasses(benchmark::State& state) {
  bench::Testbed* tb = SharedTestbed();
  ObjectQuery q;
  q.cls = tb->db.schema.hardware_component;
  q.include_subclasses = true;
  q.conjuncts = {{"Utilization", CompareOp::kLe, Value(0.5)},
                 {"Status", CompareOp::kEq, Value(int64_t(1))}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb->dep().server().ExecuteQuery(0, q, nullptr));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(tb->db.all_hardware_oids.size()));
}
BENCHMARK(BM_ExecuteQuerySubclasses);

void BM_PredicateMatch(benchmark::State& state) {
  bench::Testbed* tb = SharedTestbed();
  const SchemaCatalog& cat = tb->dep().server().schema();
  DatabaseObject link =
      tb->dep().server().heap().Read(tb->db.link_oids[0]).value();
  AttrPredicate pred{"Utilization", CompareOp::kGe, Value(0.5)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.Matches(cat, link));
  }
}
BENCHMARK(BM_PredicateMatch);

}  // namespace
}  // namespace idba

BENCHMARK_MAIN();
