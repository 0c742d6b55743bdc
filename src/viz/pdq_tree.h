// PDQ Tree-browser (Kumar, Plaisant & Shneiderman, ISR TR 95-53): browsing
// hierarchical data with multi-level dynamic queries and pruning — the
// second visualization of the paper's prototype (§4).
//
// The browser lays a tree out left-to-right by level; per-level dynamic
// query predicates (attribute range filters) prune nodes; pruned subtrees
// collapse, and ancestors with every child pruned can optionally remain as
// stubs so the user keeps context.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "viz/geometry.h"

namespace idba {

/// Input node for the PDQ browser.
struct PdqNode {
  std::string label;
  uint64_t tag = 0;
  /// Named attributes the dynamic queries filter on.
  std::map<std::string, double> attributes;
  std::vector<PdqNode> children;

  bool is_leaf() const { return children.empty(); }
  size_t TotalCount() const;
};

/// One dynamic query: a closed range on an attribute, applied at one tree
/// level (or every level when level == kAllLevels).
struct DynamicQuery {
  static constexpr int kAllLevels = -1;
  int level = kAllLevels;
  std::string attribute;
  double min = 0;
  double max = 0;

  bool Matches(const PdqNode& node) const {
    auto it = node.attributes.find(attribute);
    if (it == node.attributes.end()) return true;  // unfiltered attribute
    return it->second >= min && it->second <= max;
  }
};

/// A laid-out, possibly pruned node.
struct PdqLayoutNode {
  Point position;        ///< x = level * level_spacing, y = row slot
  std::string label;
  uint64_t tag = 0;
  int level = 0;
  size_t pruned_descendants = 0;  ///< subtree size removed under this node
  int parent_index = -1;          ///< index into the layout vector
};

struct PdqOptions {
  double level_spacing = 12.0;
  double row_spacing = 2.0;
};

/// Result of a layout pass.
struct PdqLayout {
  std::vector<PdqLayoutNode> nodes;  ///< pre-order
  size_t visible_count = 0;
  size_t pruned_count = 0;
  double height = 0;  ///< total rows used * row_spacing
};

/// Applies the queries to `root` and lays out the surviving tree.
/// A node is pruned when any query at its level rejects it; pruning a node
/// prunes its whole subtree (the PDQ browser's pruning semantics).
Result<PdqLayout> LayoutPdqTree(const PdqNode& root,
                                const std::vector<DynamicQuery>& queries,
                                const PdqOptions& opts = {});

}  // namespace idba
