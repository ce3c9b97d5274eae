#include "timr/fragments.h"

#include <optional>
#include <unordered_map>
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

class FragmentCutter {
 public:
  Result<FragmentedPlan> Cut(const PlanNodePtr& root) {
    // Every non-source child of an exchange is materialized as a fragment.
    for (const PlanNode* n : temporal::CollectNodes(root)) {
      if (n->kind == OpKind::kExchange &&
          n->children[0]->kind != OpKind::kInput) {
        materialized_.insert(n->children[0].get());
      }
    }
    FragmentedPlan out;
    TIMR_ASSIGN_OR_RETURN(std::string final_name, BuildFragment(root, &out));
    out.fragments = RunOrder(std::move(out.fragments));
    // The final fragment writes the job output dataset.
    TIMR_CHECK(!out.fragments.empty());
    TIMR_CHECK(out.fragments.back().name == final_name);
    out.output_dataset = final_name;
    return out;
  }

 private:
  /// Builds the fragment rooted at `node` (which must NOT itself be an
  /// exchange), appends it (after its dependencies) to out->fragments, and
  /// returns its name.
  Result<std::string> BuildFragment(const PlanNodePtr& node, FragmentedPlan* out) {
    auto memo = fragment_memo_.find(node.get());
    if (memo != fragment_memo_.end()) return memo->second;

    Fragment frag;
    frag.name = "frag_" + std::to_string(counter_++);
    std::optional<PartitionSpec> key;
    FragContext ctx;
    ctx.root = node.get();
    TIMR_ASSIGN_OR_RETURN(frag.root, Extract(node, &frag, &key, &ctx, out));
    // No exchange feeds a keyless fragment: it runs as a single partition.
    frag.key = key.value_or(PartitionSpec::ByKeys({}));
    fragment_memo_[node.get()] = frag.name;
    exchange_key_[frag.name] = key;
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
                              std::optional<PartitionSpec>* key,
                              FragContext* ctx, FragmentedPlan* out) {
    // A cut replaces the sub-plan at `node` with a read of the rows
    // `producer` computes, which arrive under `spec`.
    PlanNodePtr producer;
    std::optional<PartitionSpec> spec;
    if (node->kind == OpKind::kExchange) {
      producer = node->children[0];
      spec = node->exchange;
    } else if (node->kind == OpKind::kInput) {
      // Raw source read in place (no repartitioning marker). The stage's map
      // phase will still partition it by the fragment key.
      producer = node;
    } else if (node.get() != ctx->root && materialized_.count(node.get())) {
      // Another fragment materializes this node: read its dataset under its
      // key (the key a copy would have had) rather than recompute it. A
      // temporal producer's rows are clipped at span bounds, which a
      // re-timing operator above would see as split events: recompute those.
      TIMR_ASSIGN_OR_RETURN(std::string dataset, BuildFragment(node, out));
      spec = exchange_key_.at(dataset);
      if (!spec || spec->kind != PartitionSpec::Kind::kTemporal) producer = node;
    }
    if (producer != nullptr) {
      if (spec.has_value()) {
        if (key->has_value() && !SpecEqual(**key, *spec)) {
          return Status::Invalid(
              "fragment fed by exchanges with conflicting partitioning keys: " +
              (*key)->ToString() + " vs " + spec->ToString() +
              " (paper footnote 1 requires them to be identical)");
        }
        *key = spec;
      }
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
      TIMR_ASSIGN_OR_RETURN(c, Extract(c, frag, key, ctx, out));
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

  int counter_ = 0;
  // Non-source exchange children: each is the root of one fragment.
  std::unordered_set<const PlanNode*> materialized_;
  // fragment root plan node -> fragment name (multicast across fragments).
  std::unordered_map<const PlanNode*, std::string> fragment_memo_;
  // fragment name -> the exchange key its inputs arrive under, if any.
  std::unordered_map<std::string, std::optional<PartitionSpec>> exchange_key_;
};

}  // namespace

Result<FragmentedPlan> MakeFragments(const temporal::PlanNodePtr& annotated_root) {
  if (annotated_root->kind == OpKind::kExchange) {
    return Status::Invalid("plan root must not be an exchange operator");
  }
  FragmentCutter cutter;
  return cutter.Cut(annotated_root);
}

}  // namespace timr::framework
