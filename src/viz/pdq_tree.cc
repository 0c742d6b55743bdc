#include "viz/pdq_tree.h"

namespace idba {

size_t PdqNode::TotalCount() const {
  size_t n = 1;
  for (const auto& c : children) n += c.TotalCount();
  return n;
}

namespace {

bool PassesQueries(const PdqNode& node, int level,
                   const std::vector<DynamicQuery>& queries) {
  for (const auto& q : queries) {
    if (q.level != DynamicQuery::kAllLevels && q.level != level) continue;
    if (!q.Matches(node)) return false;
  }
  return true;
}

struct LayoutState {
  const std::vector<DynamicQuery>* queries;
  const PdqOptions* opts;
  PdqLayout* out;
  double next_row = 0;
};

// Returns the y coordinate of the laid-out node, or a negative value if the
// node was pruned entirely (no emission).
double LayoutRec(const PdqNode& node, int level, int parent_index,
                 LayoutState* st) {
  if (!PassesQueries(node, level, *st->queries)) {
    st->out->pruned_count += node.TotalCount();
    return -1;
  }
  // Reserve our slot now (pre-order), fill y after children are known.
  size_t my_index = st->out->nodes.size();
  st->out->nodes.push_back(PdqLayoutNode{});
  PdqLayoutNode& me = st->out->nodes[my_index];
  me.label = node.label;
  me.tag = node.tag;
  me.level = level;
  me.parent_index = parent_index;

  double child_y_sum = 0;
  int surviving_children = 0;
  size_t pruned_here = 0;
  for (const auto& c : node.children) {
    size_t before = st->out->pruned_count;
    double cy = LayoutRec(c, level + 1, static_cast<int>(my_index), st);
    if (cy >= 0) {
      child_y_sum += cy;
      ++surviving_children;
    } else {
      pruned_here += st->out->pruned_count - before;
    }
  }

  double y;
  if (surviving_children > 0) {
    y = child_y_sum / surviving_children;  // centered over children
  } else {
    y = st->next_row;
    st->next_row += st->opts->row_spacing;
  }
  // (Re-fetch: children may have reallocated the vector.)
  PdqLayoutNode& me2 = st->out->nodes[my_index];
  me2.position = Point{level * st->opts->level_spacing, y};
  me2.pruned_descendants = pruned_here;
  st->out->visible_count += 1;
  return y;
}

}  // namespace

Result<PdqLayout> LayoutPdqTree(const PdqNode& root,
                                const std::vector<DynamicQuery>& queries,
                                const PdqOptions& opts) {
  for (const auto& q : queries) {
    if (q.min > q.max) {
      return Status::InvalidArgument("dynamic query with min > max on " +
                                     q.attribute);
    }
  }
  PdqLayout out;
  LayoutState st{&queries, &opts, &out, 0};
  double y = LayoutRec(root, 0, -1, &st);
  if (y < 0) {
    // Root itself pruned: empty layout.
    out.nodes.clear();
    out.visible_count = 0;
  }
  out.height = st.next_row;
  return out;
}

}  // namespace idba
