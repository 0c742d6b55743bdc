// E3 — Server-side overhead of display locking (paper §4.3).
//
// Paper: "our tests indicated no effect of the server overhead for handling
// display locks. Extending the traditional locking mechanisms to include
// display locks will only contribute a very small fraction of overhead".
//
// Measures real (wall-clock) commit throughput through the server while
// the display-lock apparatus varies. Viewer clients run on other machines
// in the paper's deployment, so their refresh work must not be charged to
// the server: inboxes are drained without client-side processing. A final
// whole-system row (viewers refreshing in-process) is shown for context.

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/exp_common.h"

namespace idba {
namespace bench {
namespace {

double CommitsPerSecond(Testbed& tb, ClientApi* writer, int commits) {
  Rng rng(3);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < commits; ++i) {
    Oid oid = tb.db.link_oids[rng.NextBelow(tb.db.link_oids.size())];
    (void)UpdateUtilization(writer, oid, rng.NextDouble());
  }
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return commits / elapsed;
}

struct Row {
  std::string label;
  int holders;       // display-lock holders per link
  bool integrated;   // integrated DLM: no agent hops
  bool full_refresh; // context row: viewers refresh on host CPU too
};

void Run() {
  Banner("E3", "server overhead of display-lock handling",
         "display locks contribute only a very small fraction of server "
         "overhead");
  Table table({"configuration", "locked objs", "holders", "commits/s",
               "us/commit", "delta us", "of 1996 commit"});

  const int kCommits = 20000;
  NmsConfig net;
  net.num_nodes = 64;

  double baseline_cps = 0;
  std::vector<Row> rows = {
      {"no display locks (baseline)", 0, false, false},
      {"agent DLM, 1 holder/obj", 1, false, false},
      {"agent DLM, 4 holders/obj", 4, false, false},
      {"agent DLM, 16 holders/obj", 16, false, false},
      {"integrated DLM, 4 holders/obj", 4, true, false},
      {"whole system, 4 viewers refreshing", 4, false, true},
  };
  for (const auto& row : rows) {
    DeploymentOptions dopts;
    dopts.dlm.integrated = row.integrated;
    Testbed tb = MakeTestbed(dopts, net);
    auto writer = tb.dep().NewSession(50);

    std::vector<std::unique_ptr<InteractiveSession>> viewers;
    for (int v = 0; v < row.holders; ++v) {
      auto s = tb.dep().NewSession(100 + v);
      ActiveView* view = s->CreateView("links");
      (void)view->PopulateFromClass(tb.Dc(tb.dcs.color_coded_link));
      viewers.push_back(std::move(s));
    }

    // Keep inboxes bounded. Viewers live on other machines in the paper's
    // setup, so by default we discard envelopes without doing client-side
    // refresh work on this host; the context row does the full pumping.
    std::atomic<bool> draining{true};
    std::thread drainer([&] {
      while (draining.load()) {
        for (auto& v : viewers) {
          if (row.full_refresh) {
            v->PumpOnce();
          } else {
            (void)v->client().inbox().DrainAll();
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    double cps = CommitsPerSecond(tb, &writer->client(), kCommits);
    draining = false;
    drainer.join();

    if (row.holders == 0) baseline_cps = cps;
    double delta_us = 1e6 / cps - 1e6 / baseline_cps;
    // A 1996 commit forced the log to disk: >= one ~10 ms disk write. The
    // display-lock delta is measured in microseconds of CPU on top.
    double vs_1996_pct = delta_us / 10000.0 * 100.0;
    table.AddRow({row.label, FmtInt(row.holders ? tb.db.link_oids.size() : 0),
                  FmtInt(row.holders), Fmt("%.0f", cps),
                  Fmt("%.1f", 1e6 / cps),
                  row.holders ? Fmt("%+.1f", delta_us) : "--",
                  row.holders ? Fmt("%+.3f%%", vs_1996_pct) : "--"});
  }
  table.Print();
  std::printf(
      "\nexpected shape: per-commit cost grows by only a few microseconds —\n"
      "a small fraction of the commit path (WAL + heap + locks) — even with\n"
      "many holders; the whole-system row shows that the visible cost of\n"
      "displays is client refresh work, not server lock handling, matching\n"
      "the paper's conclusion.\n");
}

}  // namespace
}  // namespace bench
}  // namespace idba

int main() {
  idba::bench::Run();
  return 0;
}
