// Fragment extraction: cut an annotated CQ plan into partitionable query
// fragments at exchange operators (paper §III-A step 3, Figures 7-8).

#pragma once

#include <string>
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
/// Walks top-down from the root, stopping at exchange operators along every
/// path; each exchange's key becomes the partitioning key of the fragment
/// above it, and its child sub-plan becomes an upstream fragment (or a direct
/// external dataset reference when the child is a source). All exchanges
/// feeding one fragment must agree on the partitioning key (paper footnote 1).
///
/// A fragment whose traversal reaches external kInput leaves directly (with no
/// interposed exchange) reads those sources "in place"; if the fragment has a
/// key, the M-R map phase partitions the raw rows by it.
///
/// Each sub-plan is computed once: a fragment reaching, without an exchange, a
/// node another fragment materializes (an exchange's child) reads that
/// fragment's dataset under its key, unless the key is temporal (span-clipped
/// rows). Fragments come in depth-first run order, so a dataset read by
/// several fragments dies at its last reader.
Result<FragmentedPlan> MakeFragments(const temporal::PlanNodePtr& annotated_root);

}  // namespace timr::framework
