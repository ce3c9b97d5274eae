#include "timr/fragments.h"

#include <optional>
#include <set>
#include <unordered_set>

namespace timr::framework {

using temporal::OpKind;
using temporal::PartitionSpec;
using temporal::PlanNode;
using temporal::PlanNodePtr;

namespace {

bool SpecEqual(const PartitionSpec& a, const PartitionSpec& b) {
  return a.kind == b.kind && a.keys == b.keys && a.span_width == b.span_width &&
         a.overlap == b.overlap;
}

void PostOrder(const PlanNode* node, std::unordered_set<const PlanNode*>* seen,
               std::vector<const PlanNode*>* out) {
  if (!seen->insert(node).second) return;
  for (const PlanNodePtr& c : node->children) PostOrder(c.get(), seen, out);
  out->push_back(node);
}

class FragmentCutter {
 public:
  explicit FragmentCutter(
      const std::unordered_map<const PlanNode*, std::string>& names)
      : names_(names) {}

  Result<FragmentedPlan> Cut(const std::vector<PlanNodePtr>& roots) {
    TIMR_RETURN_NOT_OK(PlanCut(roots));
    FragmentedPlan out;
    for (const PlanNodePtr& root : roots) {
      TIMR_RETURN_NOT_OK(BuildFragment(root, &out).status());
    }
    out.fragments = RunOrder(std::move(out.fragments));
    out.output_dataset = out.fragments.back().name;
    return out;
  }

 private:
  /// Decides the cut before any fragment is built: every node's key, then
  /// which nodes root a fragment (the rule in fragments.h).
  Status PlanCut(const std::vector<PlanNodePtr>& roots) {
    std::vector<const PlanNode*> order;  // children before parents
    std::unordered_set<const PlanNode*> seen;
    for (const PlanNodePtr& root : roots) {
      if (root->kind == OpKind::kExchange) {
        return Status::Invalid("plan root must not be an exchange operator");
      }
      PostOrder(root.get(), &seen, &order);
      materialized_.insert(root.get());
    }
    for (const PlanNode* n : order) {
      std::optional<PartitionSpec>& key = key_[n];
      if (n->kind == OpKind::kExchange) {
        key = n->exchange;
        continue;
      }
      for (const PlanNodePtr& c : n->children) {
        const std::optional<PartitionSpec>& spec = key_.at(c.get());
        if (!spec.has_value()) continue;
        if (key.has_value() && !SpecEqual(*key, *spec)) {
          return Status::Invalid(
              "fragment fed by exchanges with conflicting partitioning keys: " +
              key->ToString() + " vs " + spec->ToString() +
              " (paper footnote 1 requires them to be identical)");
        }
        key = spec;
      }
    }
    // Parents first: by the time a node comes up, every fragment reaching it
    // without an exchange is known.
    std::unordered_map<const PlanNode*, std::set<const PlanNode*>> reached;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const PlanNode* n = *it;
      if (n->kind == OpKind::kExchange) {
        const PlanNode* child = n->children[0].get();
        if (child->kind != OpKind::kInput) materialized_.insert(child);
        continue;
      }
      // The fragments that copy `n` into their plan: its readers, or only
      // its own fragment when they read its dataset instead.
      std::set<const PlanNode*>& entering = reached[n];
      if (entering.size() >= 2 && !Temporal(n)) materialized_.insert(n);
      if (materialized_.count(n) != 0) {
        if (!Temporal(n)) entering.clear();
        entering.insert(n);
      }
      for (const PlanNodePtr& c : n->children) {
        reached[c.get()].insert(entering.begin(), entering.end());
      }
    }
    return Status::OK();
  }

  bool Temporal(const PlanNode* node) const {
    const std::optional<PartitionSpec>& key = key_.at(node);
    return key.has_value() && key->kind == PartitionSpec::Kind::kTemporal;
  }

  /// Builds the fragment rooted at `node` (which must NOT itself be an
  /// exchange), appends it (after its dependencies) to out->fragments, and
  /// returns its name.
  Result<std::string> BuildFragment(const PlanNodePtr& node, FragmentedPlan* out) {
    auto memo = fragment_memo_.find(node.get());
    if (memo != fragment_memo_.end()) return memo->second;

    Fragment frag;
    auto named = names_.find(node.get());
    frag.name = named != names_.end() ? named->second
                                      : "frag_" + std::to_string(counter_);
    ++counter_;
    FragContext ctx;
    ctx.root = node.get();
    TIMR_ASSIGN_OR_RETURN(frag.root, Extract(node, &frag, &ctx, out));
    // No exchange feeds a keyless fragment: it runs as a single partition.
    frag.key = key_.at(node.get()).value_or(PartitionSpec::ByKeys({}));
    fragment_memo_[node.get()] = frag.name;
    out->fragments.push_back(std::move(frag));
    return out->fragments.back().name;
  }

  /// Reorders the cut's post-order list depth-first over the fragment DAG: a
  /// fragment runs as soon as its last input exists, the most recently
  /// readied first (a stack filled in cut order). A dataset's readers and the
  /// chains below them run while it is fresh, so it dies at its last reader
  /// instead of outliving unrelated stages.
  static std::vector<Fragment> RunOrder(std::vector<Fragment> cut) {
    std::unordered_map<std::string, std::vector<size_t>> readers;
    std::vector<size_t> missing(cut.size(), 0);
    std::vector<size_t> ready;
    for (size_t i = 0; i < cut.size(); ++i) {
      for (size_t j = 0; j < cut[i].inputs.size(); ++j) {
        if (cut[i].input_is_external[j]) continue;
        ++missing[i];
        readers[cut[i].inputs[j]].push_back(i);
      }
      if (missing[i] == 0) ready.push_back(i);
    }
    std::vector<Fragment> order;
    while (!ready.empty()) {
      const size_t next = ready.back();
      ready.pop_back();
      for (size_t r : readers[cut[next].name]) {
        if (--missing[r] == 0) ready.push_back(r);
      }
      order.push_back(std::move(cut[next]));
    }
    return order;
  }

  /// Per-fragment extraction state: a plan node shared *within* one fragment
  /// is a multicast, and all reads of one dataset collapse to one leaf (the
  /// executor requires unique input names).
  struct FragContext {
    const PlanNode* root = nullptr;
    std::unordered_map<const PlanNode*, PlanNodePtr> node_memo;
    std::unordered_map<std::string, PlanNodePtr> leaf_by_dataset;
  };

  /// Copies the sub-plan for the current fragment, cutting at exchanges and
  /// at nodes another fragment materializes.
  Result<PlanNodePtr> Extract(const PlanNodePtr& node, Fragment* frag,
                              FragContext* ctx, FragmentedPlan* out) {
    // A cut replaces the sub-plan at `node` with a read of the rows
    // `producer` computes: an exchange's child, a source read in place (the
    // stage's map phase still partitions it by the fragment key), or a node
    // another fragment materializes.
    PlanNodePtr producer;
    if (node->kind == OpKind::kExchange) {
      producer = node->children[0];
    } else if (node->kind == OpKind::kInput ||
               (node.get() != ctx->root && materialized_.count(node.get()) &&
                !Temporal(node.get()))) {
      producer = node;
    }
    if (producer != nullptr) {
      const bool external = producer->kind == OpKind::kInput;
      std::string dataset = producer->name;
      if (!external) {
        TIMR_ASSIGN_OR_RETURN(dataset, BuildFragment(producer, out));
      }
      auto existing = ctx->leaf_by_dataset.find(dataset);
      if (existing != ctx->leaf_by_dataset.end()) return existing->second;
      TIMR_ASSIGN_OR_RETURN(Schema payload, producer->OutputSchema());
      auto leaf = std::make_shared<PlanNode>();
      leaf->kind = OpKind::kInput;
      leaf->name = dataset;
      leaf->input_schema = std::move(payload);
      ctx->leaf_by_dataset[dataset] = leaf;
      RecordInput(frag, dataset, external);
      return leaf;
    }
    auto copy_it = ctx->node_memo.find(node.get());
    if (copy_it != ctx->node_memo.end()) return copy_it->second;
    auto copy = std::make_shared<PlanNode>(*node);
    for (auto& c : copy->children) {
      TIMR_ASSIGN_OR_RETURN(c, Extract(c, frag, ctx, out));
    }
    ctx->node_memo[node.get()] = copy;
    return copy;
  }

  void RecordInput(Fragment* frag, const std::string& dataset, bool external) {
    for (size_t i = 0; i < frag->inputs.size(); ++i) {
      if (frag->inputs[i] == dataset) return;  // multicast: read once
    }
    frag->inputs.push_back(dataset);
    frag->input_is_external.push_back(external);
  }

  const std::unordered_map<const PlanNode*, std::string>& names_;
  int counter_ = 0;
  // Each node's key: the exchange key its fragment's inputs arrive under.
  std::unordered_map<const PlanNode*, std::optional<PartitionSpec>> key_;
  // Nodes that root a fragment.
  std::unordered_set<const PlanNode*> materialized_;
  // fragment root plan node -> fragment name (multicast across fragments).
  std::unordered_map<const PlanNode*, std::string> fragment_memo_;
};

}  // namespace

Result<FragmentedPlan> MakeFragments(const PlanNodePtr& annotated_root) {
  return MakeFragments({annotated_root}, {{annotated_root.get(), "frag_0"}});
}

Result<FragmentedPlan> MakeFragments(
    const std::vector<PlanNodePtr>& annotated_roots,
    const std::unordered_map<const PlanNode*, std::string>& names) {
  if (annotated_roots.empty()) return Status::Invalid("no plan to cut");
  FragmentCutter cutter(names);
  return cutter.Cut(annotated_roots);
}

}  // namespace timr::framework
