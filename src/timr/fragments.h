// Fragment extraction: cut an annotated CQ plan into partitionable query
// fragments at exchange operators (paper §III-A step 3, Figures 7-8).

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "temporal/plan.h"

namespace timr::framework {

/// \brief One {fragment, key} pair: a query sub-plan whose kInput leaves name
/// either external source datasets or upstream fragments' output datasets.
struct Fragment {
  std::string name;            // also its output dataset name (except final)
  temporal::PlanNodePtr root;  // exchange-free plan, leaves are kInput nodes
  temporal::PartitionSpec key;

  /// Dataset names this fragment reads (== the names of its kInput leaves).
  std::vector<std::string> inputs;

  /// True for external sources among `inputs` (parallel array): external rows
  /// are in point layout, intermediate rows in interval layout.
  std::vector<bool> input_is_external;
};

struct FragmentedPlan {
  /// Fragments in execution (topological) order; the last one is the root and
  /// its output dataset is named by `output_dataset`.
  std::vector<Fragment> fragments;
  std::string output_dataset = "__timr_output";
};

/// Cut `annotated_root` (a plan containing kExchange nodes) into fragments.
///
/// A node's key is the key of the exchanges its sub-plan reaches without
/// crossing another exchange; all of them must agree (paper footnote 1). A
/// fragment runs under its root's key: its map phase partitions every input,
/// including external sources it reads in place, by that key.
///
/// Materialization rule: each sub-plan is computed once. A node becomes the
/// root of its own fragment, materialized once, when it is a plan root, an
/// exchange's non-source child, or a node that two or more fragments reach
/// without an exchange. Each fragment that reaches a materialized node
/// without an exchange reads its dataset under the node's key. The exception
/// is a temporally keyed node: its rows are clipped at span bounds, which a
/// re-timing operator above would see as split events, so each of its readers
/// recomputes it, and it gets no fragment of its own unless it is a root or
/// an exchange's child. Nodes are identified by pointer: a sub-plan built
/// twice is two sub-plans.
///
/// Fragments come in depth-first run order, so a dataset read by several
/// fragments dies at its last reader. The root's fragment is "frag_0".
Result<FragmentedPlan> MakeFragments(const temporal::PlanNodePtr& annotated_root);

/// Cut several annotated plans as one job, by the same rule: a node that
/// fragments of different plans reach is materialized once for all of them.
/// `names` names the output dataset of the fragment a listed node roots, and
/// must list every root (roots that are one node share its dataset); a listed
/// node the rule does not materialize stays inline. Other fragments are named
/// "frag_<i>". `output_dataset` names the last fragment to run.
Result<FragmentedPlan> MakeFragments(
    const std::vector<temporal::PlanNodePtr>& annotated_roots,
    const std::unordered_map<const temporal::PlanNode*, std::string>& names);

}  // namespace timr::framework
