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
//
// The deltas are a few microseconds, inside one timing's run-to-run noise,
// so every row is timed once per round over several rounds (rows in a
// rotated order, so none always runs first or last). Each row reports its
// median µs/commit with the min–max, and its delta is the median over
// rounds of (row − that round's baseline), which cancels drift between
// rounds.

#include <algorithm>
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

/// Wall-clock µs per commit of `row`, on a fresh testbed. `*locked` gets
/// the number of display-locked objects.
double MicrosPerCommit(const Row& row, const NmsConfig& net, int commits,
                       size_t* locked) {
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

  double cps = CommitsPerSecond(tb, &writer->client(), commits);
  draining = false;
  drainer.join();
  *locked = row.holders ? tb.db.link_oids.size() : 0;
  return 1e6 / cps;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Run() {
  Banner("E3", "server overhead of display-lock handling",
         "display locks contribute only a very small fraction of server "
         "overhead");

  const int kCommits = 20000;
  const int kRounds = 5;
  NmsConfig net;
  net.num_nodes = 64;

  // rows[0] is the baseline every delta is taken against.
  std::vector<Row> rows = {
      {"no display locks (baseline)", 0, false, false},
      {"agent DLM, 1 holder/obj", 1, false, false},
      {"agent DLM, 4 holders/obj", 4, false, false},
      {"agent DLM, 16 holders/obj", 16, false, false},
      {"integrated DLM, 4 holders/obj", 4, true, false},
      {"whole system, 4 viewers refreshing", 4, false, true},
  };
  std::vector<std::vector<double>> us(rows.size());  // [row][round]
  std::vector<size_t> locked(rows.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t r = (k + round) % rows.size();
      us[r].push_back(MicrosPerCommit(rows[r], net, kCommits, &locked[r]));
    }
  }

  std::printf("%d rounds x %d commits per row\n\n", kRounds, kCommits);
  Table table({"configuration", "locked objs", "holders", "us/commit",
               "min-max", "delta us", "of 1996 commit"});
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<double> deltas;
    for (int round = 0; round < kRounds; ++round) {
      deltas.push_back(us[r][round] - us[0][round]);
    }
    const double delta_us = Median(deltas);
    // A 1996 commit forced the log to disk: >= one ~10 ms disk write. The
    // display-lock delta is measured in microseconds of CPU on top.
    const double vs_1996_pct = delta_us / 10000.0 * 100.0;
    const auto [lo, hi] = std::minmax_element(us[r].begin(), us[r].end());
    const bool baseline = r == 0;
    table.AddRow({rows[r].label, FmtInt(locked[r]), FmtInt(rows[r].holders),
                  Fmt("%.1f", Median(us[r])),
                  Fmt("%.1f", *lo) + Fmt("-%.1f", *hi),
                  baseline ? "--" : Fmt("%+.1f", delta_us),
                  baseline ? "--" : Fmt("%+.3f%%", vs_1996_pct)});
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
