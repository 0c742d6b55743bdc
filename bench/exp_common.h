// Shared scaffolding for the experiment binaries (bench/exp_*.cc).
//
// Each binary regenerates one row-set of the paper's evaluation (§4.3) or
// an ablation called out in DESIGN.md; EXPERIMENTS.md records expected vs
// measured. Binaries print fixed-width tables to stdout and exit 0.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/session.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"

namespace idba {
namespace bench {

/// A deployment with a populated NMS database and display classes.
struct Testbed {
  std::unique_ptr<Deployment> deployment;
  NmsDatabase db;
  NmsDisplayClasses dcs;

  Deployment& dep() { return *deployment; }
  const DisplayClassDef* Dc(DisplayClassId id) {
    return deployment->display_schema().Find(id);
  }
};

inline Testbed MakeTestbed(DeploymentOptions opts = {}, NmsConfig config = {}) {
  Testbed tb;
  tb.deployment = std::make_unique<Deployment>(opts);
  tb.db = PopulateNms(&tb.deployment->server(), config).value();
  tb.dcs = RegisterNmsDisplayClasses(&tb.deployment->display_schema(),
                                     tb.deployment->server().schema(),
                                     tb.db.schema)
               .value();
  return tb;
}

/// Commits one utilization update through `writer`; returns commit status.
inline Status UpdateUtilization(ClientApi* writer, Oid oid, double util) {
  const SchemaCatalog& cat = writer->schema();
  TxnId t = writer->Begin();
  auto obj = writer->Read(t, oid);
  if (!obj.ok()) {
    (void)writer->Abort(t);
    return obj.status();
  }
  DatabaseObject link = std::move(obj).value();
  IDBA_RETURN_NOT_OK(link.SetByName(cat, "Utilization", Value(util)));
  Status st = writer->Write(t, std::move(link));
  if (!st.ok()) {
    (void)writer->Abort(t);
    return st;
  }
  return writer->Commit(t).status();
}

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < width.size(); ++i) {
        width[i] = std::max(width[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (size_t i = 0; i < headers_.size(); ++i) {
        std::string cell = i < cells.size() ? cells[i] : "";
        std::printf(" %-*s |", static_cast<int>(width[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s|", std::string(width[i] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

inline void Banner(const std::string& id, const std::string& title,
                   const std::string& paper_claim) {
  std::printf("\n=== %s: %s ===\n", id.c_str(), title.c_str());
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

}  // namespace bench
}  // namespace idba
