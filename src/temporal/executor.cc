#include "temporal/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "temporal/conformance.h"
#include "temporal/group_apply.h"
#include "temporal/tee.h"

namespace timr::temporal {

namespace {

/// One-pass worker behind PlanColumnarIngest: builds reverse-parent edges over
/// the visible DAG (child edges only; group sub-plans plan separately), then
/// memoizes the per-node "consumes columnar natively" decision.
class ColumnarIngestPlanner {
 public:
  explicit ColumnarIngestPlanner(const PlanNode* root) {
    seen_.insert(root);
    order_.push_back(root);
    Walk(root);
  }

  ColumnarIngestDecisions Run() {
    ColumnarIngestDecisions out;
    for (const PlanNode* n : order_) {
      out.consumes_columnar[n] = Likes(n);
    }
    for (const PlanNode* n : order_) {
      if (n->kind == OpKind::kInput) out.ingest_columnar[n] = Prefers(n);
    }
    return out;
  }

  /// Whether every direct consumer of `n` benefits from columnar input. All,
  /// not any: a multicast clones the morsel per consumer, and a row-bound
  /// consumer re-materializes its whole clone, which costs more than the
  /// columnar consumers save (measured on the BT pipeline, where mixed
  /// fan-out made any-consumer ingest a net loss). The plan root has no
  /// in-DAG consumer (the collector is row-bound), so it reports false.
  bool Prefers(const PlanNode* n) {
    const auto& ps = rparents_[n];
    if (ps.empty()) return false;
    for (const PlanNode* p : ps) {
      if (!Likes(p)) return false;
    }
    return true;
  }

  /// Whether the physical operator for `n` consumes columnar batches natively
  /// (i.e. does useful vectorized work before — or without — materializing
  /// rows). Pure pass-throughs recurse to *their* consumers: converting at
  /// ingest is only worthwhile if something downstream of the pass-through
  /// runs a kernel.
  bool Likes(const PlanNode* n) {
    auto memo = likes_memo_.find(n);
    if (memo != likes_memo_.end()) return memo->second;
    const bool v = LikesUncached(n);
    likes_memo_[n] = v;
    return v;
  }

 private:
  void Walk(const PlanNode* n) {
    for (const auto& c : n->children) {
      rparents_[c.get()].push_back(n);
      if (seen_.insert(c.get()).second) {
        order_.push_back(c.get());
        Walk(c.get());
      }
    }
  }

  bool LikesUncached(const PlanNode* n) {
    switch (n->kind) {
      case OpKind::kSelect:
        return n->select_spec.has_value();
      case OpKind::kProject:
        return n->project_spec.has_value();
      case OpKind::kAlterLifetime:
        return true;
      case OpKind::kAggregate: {
        if (n->agg.kind == AggKind::kCount) return true;
        auto in = n->children[0]->OutputSchema();
        if (!in.ok()) return false;
        auto idx = in.ValueOrDie().IndexOf(n->agg.value_column);
        if (!idx.ok()) return false;
        return in.ValueOrDie().field(idx.ValueOrDie()).type !=
               ValueType::kString;
      }
      case OpKind::kGroupApply:
      case OpKind::kTemporalJoin:
      case OpKind::kAntiSemiJoin:
        // Their ports bulk-hash keys off raw columns, but each event still
        // materializes a Row for the synopsis, so building columnar morsels
        // for them costs more at ingest than the hashing saves (measured ~1x
        // on the join-probe kernel). Columnar batches produced by upstream
        // kernels are still consumed natively.
        return false;
      case OpKind::kExchange:
      case OpKind::kConformanceCheck:
        // Pure pass-throughs inherit their consumers' preference — all of
        // them, for the same fan-out reason as Prefers.
        return Prefers(n);
      case OpKind::kInput:
      case OpKind::kSubplanInput:
      case OpKind::kUnion:
      case OpKind::kUdo:
        return false;
    }
    return false;
  }

  std::unordered_set<const PlanNode*> seen_;
  std::vector<const PlanNode*> order_;
  std::unordered_map<const PlanNode*, std::vector<const PlanNode*>> rparents_;
  std::unordered_map<const PlanNode*, bool> likes_memo_;
};

}  // namespace

ColumnarIngestDecisions PlanColumnarIngest(const PlanNodePtr& root) {
  return ColumnarIngestPlanner(root.get()).Run();
}

namespace {

/// Appends the branches of the Union tree rooted at `n` to `shape`, left to
/// right; false when a leaf is not the grouped-aggregate chain.
bool MatchBranches(const PlanNode* n, GroupedAggregateShape* shape) {
  if (n->kind == OpKind::kUnion) {
    return MatchBranches(n->children[0].get(), shape) &&
           MatchBranches(n->children[1].get(), shape);
  }
  // Walk the chain from the leaf's root down to the sub-plan input.
  GroupedAggregateShape::Branch branch;
  auto next = [&n]() {
    n = n->children.size() == 1 ? n->children[0].get() : nullptr;
  };
  for (; n != nullptr && n->kind == OpKind::kSelect; next()) {
    branch.tail.insert(branch.tail.begin(), n);
  }
  if (n == nullptr || n->kind != OpKind::kAggregate ||
      !internal::ScalarAggregate(n->agg.kind)) {
    return false;
  }
  branch.aggregate = n;
  for (next(); n != nullptr && (n->kind == OpKind::kSelect ||
                                n->kind == OpKind::kAlterLifetime);
       next()) {
    branch.head.insert(branch.head.begin(), n);
  }
  if (n == nullptr || n->kind != OpKind::kSubplanInput) return false;
  shape->branches.push_back(std::move(branch));
  return true;
}

}  // namespace

std::optional<GroupedAggregateShape> MatchGroupedAggregate(
    const PlanNode& group_apply) {
  if (group_apply.kind != OpKind::kGroupApply || !group_apply.subplan) {
    return std::nullopt;
  }
  GroupedAggregateShape shape;
  if (!MatchBranches(group_apply.subplan.get(), &shape)) return std::nullopt;
  return shape;
}

/// Source operator: the edge where pushed input is checked before it enters
/// the network.
class Executor::InputNode : public UnaryOperator {
 public:
  explicit InputNode(std::string name) : name_(std::move(name)) {}

  /// Delivers `batch`, or rejects it whole (Status::Invalid, nothing
  /// delivered) when an event's LE is below the source's CTI so far or its
  /// last LE, counting the batch's own CTI marks.
  Status Push(EventBatch&& batch) {
    Timestamp cti = last_cti_;
    Timestamp last_le = last_le_;
    const auto& marks = batch.ctis();
    size_t m = 0;
    for (size_t i = 0; i < batch.NumEvents(); ++i) {
      for (; m < marks.size() && marks[m].pos <= i; ++m) {
        cti = std::max(cti, marks[m].t);
      }
      const Timestamp le = batch.LeAt(i);
      if (le < cti || le < last_le) {
        return Status::Invalid(
            "source " + name_ + ": event at LE " + std::to_string(le) +
            (le < cti ? " is below its CTI " + std::to_string(cti)
                      : " is below its last LE " + std::to_string(last_le)));
      }
      last_le = le;
    }
    for (; m < marks.size(); ++m) cti = std::max(cti, marks[m].t);
    last_cti_ = cti;
    last_le_ = last_le;
    OnBatch(std::move(batch));
    return Status::OK();
  }

  void OnBatch(EventBatch&& batch) override {
    CountConsumedN(batch.NumEvents());
    EmitBatch(std::move(batch));
  }

  /// Build-time ingest decision: `prefer` is true when at least one direct
  /// consumer of this source executes columnar batches natively, so RunBatch
  /// knows whether building columnar morsels for it can pay off.
  void ConfigureColumnarIngest(Schema payload_schema, bool prefer) {
    payload_schema_ = std::move(payload_schema);
    prefer_columnar_ = prefer;
  }
  bool prefer_columnar() const { return prefer_columnar_; }
  const Schema& payload_schema() const { return payload_schema_; }

 private:
  std::string name_;
  Timestamp last_cti_ = kMinTime;
  Timestamp last_le_ = kMinTime;
  Schema payload_schema_;
  bool prefer_columnar_ = false;
};

namespace {

/// Recursive network builder. Shared plan nodes become one operator with
/// multiple downstream sinks (implicit Multicast).
class NetworkBuilder {
 public:
  NetworkBuilder(std::vector<std::shared_ptr<Operator>>* ops,
                 std::map<std::string, Executor::InputNode*>* inputs)
      : ops_(ops), inputs_(inputs) {}

  Result<Operator*> Build(const PlanNodePtr& node) {
    if (!counted_) {
      counted_ = true;
      parents_[node.get()] = 1;  // the root's consumer (collector / parent op)
      CountParents(node.get());
      ingest_ = PlanColumnarIngest(node);
    }
    auto it = memo_.find(node.get());
    if (it != memo_.end()) return it->second;
    if (node->kind == OpKind::kExchange) {
      // Single-node execution: an exchange is pure routing, so its consumers
      // bind straight to the producer instead of paying a per-event
      // passthrough hop (the annotated BT plan crosses several exchanges).
      TIMR_RETURN_NOT_OK(node->OutputSchema().status());
      TIMR_ASSIGN_OR_RETURN(Operator * child, Build(node->children[0]));
      memo_[node.get()] = child;
      return child;
    }
    TIMR_ASSIGN_OR_RETURN(Operator * fused, TryFuse(node));
    if (fused != nullptr) return fused;
    TIMR_ASSIGN_OR_RETURN(Operator * op, Create(node));
    memo_[node.get()] = op;
    for (size_t i = 0; i < node->children.size(); ++i) {
      TIMR_RETURN_NOT_OK(
          WireChild(node->children[i], op->InputPort(static_cast<int>(i))));
    }
    return op;
  }

  /// The sink feeding the (unique) kSubplanInput leaf, if any.
  EventSink* subplan_sink() const { return subplan_sink_; }

 private:
  static bool Fusable(const PlanNode* n) {
    return n->kind == OpKind::kSelect || n->kind == OpKind::kProject ||
           n->kind == OpKind::kAlterLifetime;
  }

  /// Consumer counts are kept on *physical* producers: an elided kExchange
  /// aliases to its child's operator in Build(), so an edge into an exchange
  /// is an edge into the node below it. Exchange nodes themselves are never
  /// counted (and never consulted).
  static const PlanNode* ResolveExchanges(const PlanNode* n) {
    while (n->kind == OpKind::kExchange) n = n->children[0].get();
    return n;
  }

  void CountParents(const PlanNode* n) {
    for (const auto& c : n->children) {
      const PlanNode* resolved = ResolveExchanges(c.get());
      if (++parents_[resolved] == 1) CountParents(resolved);
    }
  }

  /// Builds `child` and connects its output to `port`. A single-consumer
  /// kSubplanInput leaf gets no operator of its own: the group instance's
  /// input feeds `port` directly, sparing every routed event (and every
  /// broadcast CTI) a passthrough hop in every group instance. Multi-consumer
  /// leaves still build a PassthroughOp in Create as the fan-out node.
  ///
  /// A multi-consumer producer is fronted by one TeeOp that every consumer
  /// port hangs off: batches fan out as shared copy-on-write views instead of
  /// the deep Clone-per-sink the bare Operator::Deliver multicast performs.
  /// Consumers are attached to the tee in wiring order, which is exactly the
  /// order AddOutput calls happened before — delivery order (and therefore
  /// output) is bit-identical.
  Status WireChild(const PlanNodePtr& child, EventSink* port) {
    if (child->kind == OpKind::kSubplanInput && parents_[child.get()] == 1) {
      if (subplan_sink_ != nullptr) {
        return Status::Invalid("group sub-plan has multiple input leaves");
      }
      subplan_sink_ = port;
      return Status::OK();
    }
    TIMR_ASSIGN_OR_RETURN(Operator * op, Build(child));
    if (parents_[ResolveExchanges(child.get())] > 1) {
      // Key the tee by the physical operator: consumers that reach the same
      // producer through different (elided) exchange aliases share one tee.
      TeeOp*& tee = tees_[op];
      if (tee == nullptr) {
        auto owned = std::make_shared<TeeOp>();
        tee = owned.get();
        Register(std::move(owned));
        op->AddOutput(tee->InputPort(0));
      }
      tee->AddPort(port);
      return Status::OK();
    }
    op->AddOutput(port);
    return Status::OK();
  }

  /// Collapses a maximal chain of adjacent stateless nodes (head `node`, then
  /// descendants that are themselves stateless and single-consumer) into one
  /// FusedStatelessOp. Returns nullptr when no chain of length >= 2 starts at
  /// `node`; the regular Create path then applies.
  Result<Operator*> TryFuse(const PlanNodePtr& node) {
    if (!Fusable(node.get())) return nullptr;
    std::vector<const PlanNode*> chain{node.get()};  // head-to-tail
    const PlanNode* tail = node.get();
    while (true) {
      const PlanNode* child = tail->children[0].get();
      if (!Fusable(child) || parents_[child] != 1) break;
      chain.push_back(child);
      tail = child;
    }
    if (chain.size() < 2) return nullptr;
    std::vector<FusedStatelessOp::Step> steps;
    steps.reserve(chain.size());
    // Execution order is upstream-first: tail to head.
    for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
      const PlanNode* n = *rit;
      TIMR_RETURN_NOT_OK(n->OutputSchema().status());
      switch (n->kind) {
        case OpKind::kSelect:
          steps.push_back(
              FusedStatelessOp::Step::Select(n->pred, n->select_spec));
          break;
        case OpKind::kProject:
          steps.push_back(
              FusedStatelessOp::Step::Project(n->project_fn, n->project_spec));
          break;
        default:
          steps.push_back(FusedStatelessOp::Step::Alter(n->alter));
          break;
      }
    }
    Operator* op = Register(std::make_shared<FusedStatelessOp>(std::move(steps)));
    memo_[node.get()] = op;
    TIMR_RETURN_NOT_OK(WireChild(tail->children[0], op->InputPort(0)));
    return op;
  }

  Result<Operator*> Create(const PlanNodePtr& node) {
    // Validate schemas eagerly so errors surface at build time.
    TIMR_RETURN_NOT_OK(node->OutputSchema().status());
    switch (node->kind) {
      case OpKind::kInput: {
        auto op = std::make_shared<Executor::InputNode>(node->name);
        if (inputs_->count(node->name)) {
          return Status::Invalid("duplicate input name: " + node->name);
        }
        const auto pref = ingest_.ingest_columnar.find(node.get());
        op->ConfigureColumnarIngest(
            node->input_schema,
            pref != ingest_.ingest_columnar.end() && pref->second);
        (*inputs_)[node->name] = op.get();
        return Register(std::move(op));
      }
      case OpKind::kSubplanInput: {
        // Reached only when the leaf has several consumers (or is itself the
        // sub-plan root); the passthrough is the shared fan-out node.
        if (subplan_sink_ != nullptr) {
          return Status::Invalid("group sub-plan has multiple input leaves");
        }
        Operator* op = Register(std::make_shared<PassthroughOp>());
        subplan_sink_ = op->InputPort(0);
        return op;
      }
      case OpKind::kSelect:
        if (node->select_spec.has_value()) {
          return Register(std::make_shared<SelectOp>(*node->select_spec));
        }
        return Register(std::make_shared<SelectOp>(node->pred));
      case OpKind::kProject:
        if (node->project_spec.has_value()) {
          TIMR_ASSIGN_OR_RETURN(Schema in, node->children[0]->OutputSchema());
          return Register(
              std::make_shared<ProjectOp>(*node->project_spec, in));
        }
        return Register(std::make_shared<ProjectOp>(node->project_fn));
      case OpKind::kAlterLifetime:
        return Register(std::make_shared<AlterLifetimeOp>(node->alter));
      case OpKind::kExchange:
        // Normally elided in Build(); a passthrough preserves behavior if an
        // exchange ever reaches physical creation.
        return Register(std::make_shared<PassthroughOp>());
      case OpKind::kConformanceCheck:
        return Register(std::make_shared<ConformanceCheckOp>(node->name));
      case OpKind::kAggregate: {
        int value_index = -1;
        if (node->agg.kind != AggKind::kCount) {
          TIMR_ASSIGN_OR_RETURN(Schema in, node->children[0]->OutputSchema());
          TIMR_ASSIGN_OR_RETURN(value_index, in.IndexOf(node->agg.value_column));
        }
        return Register(std::make_shared<AggregateOp>(node->agg, value_index));
      }
      case OpKind::kGroupApply: {
        TIMR_ASSIGN_OR_RETURN(Schema in, node->children[0]->OutputSchema());
        TIMR_ASSIGN_OR_RETURN(std::vector<int> key_idx,
                              in.IndicesOf(node->group_keys));
        if (auto shape = MatchGroupedAggregate(*node)) {
          TIMR_RETURN_NOT_OK(node->subplan->OutputSchema().status());
          std::vector<GroupedAggregateOp::Branch> branches;
          for (const GroupedAggregateShape::Branch& s : shape->branches) {
            GroupedAggregateOp::Branch& b = branches.emplace_back();
            for (const PlanNode* n : s.head) {
              b.head.push_back(
                  n->kind == OpKind::kSelect
                      ? FusedStatelessOp::Step::Select(n->pred, n->select_spec)
                      : FusedStatelessOp::Step::Alter(n->alter));
            }
            b.kind = s.aggregate->agg.kind;
            if (b.kind != AggKind::kCount) {
              TIMR_ASSIGN_OR_RETURN(b.value_index,
                                    in.IndexOf(s.aggregate->agg.value_column));
            }
            for (const PlanNode* n : s.tail) b.tail.push_back(n->pred);
          }
          return Register(std::make_shared<GroupedAggregateOp>(
              std::move(key_idx), std::move(branches)));
        }
        PlanNodePtr sub = node->subplan;
        SubPlanFactory factory = [sub](EventSink* output) {
          std::vector<std::shared_ptr<Operator>> ops;
          std::map<std::string, Executor::InputNode*> no_inputs;
          NetworkBuilder b(&ops, &no_inputs);
          auto root = b.Build(sub);
          TIMR_CHECK(root.ok()) << root.status().ToString();
          root.ValueOrDie()->AddOutput(output);
          TIMR_CHECK(b.subplan_sink() != nullptr)
              << "group sub-plan has no input leaf";
          return std::make_unique<SubPlanNetwork>(b.subplan_sink(),
                                                  std::move(ops));
        };
        return Register(std::make_shared<GroupApplyOp>(std::move(key_idx),
                                                       std::move(factory)));
      }
      case OpKind::kUnion:
        return Register(std::make_shared<UnionOp>());
      case OpKind::kTemporalJoin: {
        TIMR_ASSIGN_OR_RETURN(Schema ls, node->children[0]->OutputSchema());
        TIMR_ASSIGN_OR_RETURN(Schema rs, node->children[1]->OutputSchema());
        TIMR_ASSIGN_OR_RETURN(std::vector<int> lk, ls.IndicesOf(node->left_keys));
        TIMR_ASSIGN_OR_RETURN(std::vector<int> rk,
                              rs.IndicesOf(node->right_keys));
        return Register(std::make_shared<TemporalJoinOp>(
            std::move(lk), std::move(rk), node->join_pred, node->join_project));
      }
      case OpKind::kAntiSemiJoin: {
        TIMR_ASSIGN_OR_RETURN(Schema ls, node->children[0]->OutputSchema());
        TIMR_ASSIGN_OR_RETURN(Schema rs, node->children[1]->OutputSchema());
        TIMR_ASSIGN_OR_RETURN(std::vector<int> lk, ls.IndicesOf(node->left_keys));
        TIMR_ASSIGN_OR_RETURN(std::vector<int> rk,
                              rs.IndicesOf(node->right_keys));
        return Register(
            std::make_shared<AntiSemiJoinOp>(std::move(lk), std::move(rk)));
      }
      case OpKind::kUdo:
        return Register(std::make_shared<HoppingUdoOp>(
            node->udo_window, node->udo_hop, node->udo_fn));
    }
    return Status::Invalid("unknown plan node kind");
  }

  Operator* Register(std::shared_ptr<Operator> op) {
    ops_->push_back(op);
    return ops_->back().get();
  }

  std::vector<std::shared_ptr<Operator>>* ops_;
  std::map<std::string, Executor::InputNode*>* inputs_;
  std::unordered_map<const PlanNode*, Operator*> memo_;
  std::unordered_map<const PlanNode*, int> parents_;
  std::unordered_map<Operator*, TeeOp*> tees_;
  ColumnarIngestDecisions ingest_;
  bool counted_ = false;
  EventSink* subplan_sink_ = nullptr;
};

}  // namespace

Result<std::unique_ptr<Executor>> Executor::Create(const PlanNodePtr& root) {
  auto exec = std::unique_ptr<Executor>(new Executor());
  NetworkBuilder builder(&exec->operators_, &exec->inputs_);
  TIMR_ASSIGN_OR_RETURN(exec->root_op_, builder.Build(root));
  exec->root_op_->AddOutput(&exec->collector_);
  for (const auto& [name, op] : exec->inputs_) {
    (void)op;
    exec->input_names_.push_back(name);
  }
  if (exec->inputs_.empty()) {
    return Status::Invalid("plan has no Input sources");
  }
  return exec;
}

Status Executor::PushEvent(const std::string& input, Event event) {
  return PushBatch(input, EventBatch::Of(std::move(event)));
}

Status Executor::PushBatch(const std::string& input, EventBatch&& batch) {
  auto it = inputs_.find(input);
  if (it == inputs_.end()) return Status::KeyError("no input named " + input);
  return it->second->Push(std::move(batch));
}

Status Executor::PushCti(const std::string& input, Timestamp t) {
  return PushBatch(input, EventBatch::OfCti(t));
}

void Executor::PushCtiAll(Timestamp t) {
  for (auto& [name, op] : inputs_) {
    (void)name;
    TIMR_CHECK_OK(op->Push(EventBatch::OfCti(t)));
  }
}

void Executor::Finish() { PushCtiAll(kMaxTime); }

void Executor::AddOutputSink(EventSink* sink) { root_op_->AddOutput(sink); }

Result<bool> Executor::InputPrefersColumnar(const std::string& input) const {
  auto it = inputs_.find(input);
  if (it == inputs_.end()) return Status::KeyError("no input named " + input);
  return it->second->prefer_columnar();
}

uint64_t Executor::TotalEventsConsumed() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->events_consumed();
  return total;
}

std::vector<std::string> Executor::ConformanceViolations() const {
  std::vector<std::string> out;
  for (const auto& op : operators_) {
    if (auto* check = dynamic_cast<const ConformanceCheckOp*>(op.get())) {
      out.insert(out.end(), check->violations().begin(),
                 check->violations().end());
    }
  }
  return out;
}

Result<std::vector<Event>> Executor::Execute(
    const PlanNodePtr& root, std::map<std::string, std::vector<Event>> inputs) {
  TIMR_ASSIGN_OR_RETURN(std::unique_ptr<Executor> exec, Create(root));
  return exec->RunBatch(std::move(inputs));
}

Result<std::vector<Event>> Executor::RunBatch(
    std::map<std::string, std::vector<Event>> inputs) {
  // Global LE-order merge across sources, delivered as morsels: the merged
  // stream is cut into same-source runs of at most batch_size_ events, with
  // thinned CTI marks embedded at LE advances. When a run flushes, the other
  // sources receive one coarse CTI at the watermark; this is sound because
  // the merge order guarantees their pending events all have LE >= the
  // flushed run's last LE. Every operator is CTI-granularity-invariant (that
  // is what makes output independent of batch_size_ in the first place), so
  // the driver only punctuates every cti_thinning_-th LE advance: with mostly
  // unique timestamps a per-advance CTI doubles graph traffic — every
  // punctuation walks every operator — for no additional output.
  //
  // Morsels are built columnar (SoA) for sources whose direct consumers run
  // columnar kernels; a row whose dynamic types don't match the declared
  // schema demotes that morsel to the row representation on the spot.
  const size_t cti_thinning = cti_thinning_;
  size_t advances = 0;
  struct Cursor {
    InputNode* op;
    std::vector<Event>* events;
    size_t pos = 0;
    bool columnar = false;
  };
  std::vector<Cursor> cursors;
  for (auto& [name, events] : inputs) {
    auto it = inputs_.find(name);
    if (it == inputs_.end()) {
      return Status::KeyError("plan has no input named " + name);
    }
    auto le_less = [](const Event& a, const Event& b) { return a.le < b.le; };
    // Reducer inputs arrive already LE-sorted from the shuffle; with the
    // caller's assume_sorted_inputs guarantee the driver skips even the
    // is_sorted scan (debug builds still verify), otherwise the scan lets the
    // common case skip the sort (and its temp-buffer allocation).
    if (assume_sorted_inputs_) {
      TIMR_DCHECK(std::is_sorted(events.begin(), events.end(), le_less))
          << "assume_sorted_inputs set but input '" << name
          << "' is not LE-sorted";
    } else if (!std::is_sorted(events.begin(), events.end(), le_less)) {
      std::stable_sort(events.begin(), events.end(), le_less);
    }
    cursors.push_back(Cursor{it->second, &events, 0,
                             columnar_enabled_ && it->second->prefer_columnar()});
  }
  Timestamp last_cti = kMinTime;
  auto append = [](EventBatch& morsel, Event&& ev) {
    if (morsel.columnar()) {
      if (morsel.TryAppendColumnar(ev.le, ev.re, ev.payload)) return;
      morsel.EnsureRows();  // type mismatch: demote this morsel to rows
    }
    morsel.Add(std::move(ev));
  };
  // Single-input fast path: no merge bookkeeping, just slice the sorted
  // vector into batches. (Requires the plan to have one input too — with
  // unfed plan inputs the general loop's cross-source CTI at flush matters.)
  if (cursors.size() == 1 && inputs_.size() == 1) {
    Cursor& c = cursors[0];
    std::vector<Event>& events = *c.events;
    while (c.pos < events.size()) {
      const size_t n = std::min(batch_size_, events.size() - c.pos);
      EventBatch morsel;
      if (c.columnar) morsel.BeginColumnar(c.op->payload_schema());
      for (size_t i = 0; i < n; ++i) {
        Event ev = std::move(events[c.pos++]);
        if (ev.le > last_cti && ++advances >= cti_thinning) {
          advances = 0;
          last_cti = ev.le;
          morsel.AddCti(last_cti);
        }
        append(morsel, std::move(ev));
      }
      TIMR_RETURN_NOT_OK(c.op->Push(std::move(morsel)));
    }
    Finish();
    return TakeOutput();
  }
  EventBatch batch;
  InputNode* batch_src = nullptr;
  auto flush = [&]() -> Status {
    if (batch_src == nullptr) return Status::OK();
    InputNode* src = batch_src;
    batch_src = nullptr;
    TIMR_RETURN_NOT_OK(src->Push(std::move(batch)));
    batch = EventBatch();
    for (auto& [name, op] : inputs_) {
      (void)name;
      if (op != src) TIMR_RETURN_NOT_OK(op->Push(EventBatch::OfCti(last_cti)));
    }
    return Status::OK();
  };
  while (true) {
    int pick = -1;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].pos >= cursors[i].events->size()) continue;
      const Timestamp le = (*cursors[i].events)[cursors[i].pos].le;
      if (pick == -1 || le < (*cursors[pick].events)[cursors[pick].pos].le) {
        pick = static_cast<int>(i);
      }
    }
    if (pick == -1) break;
    Cursor& c = cursors[pick];
    if (c.op != batch_src || batch.NumEvents() >= batch_size_) {
      TIMR_RETURN_NOT_OK(flush());
    }
    if (batch_src == nullptr && c.columnar) {
      batch.BeginColumnar(c.op->payload_schema());
    }
    batch_src = c.op;
    Event ev = std::move((*c.events)[c.pos++]);
    if (ev.le > last_cti && ++advances >= cti_thinning) {
      advances = 0;
      last_cti = ev.le;
      batch.AddCti(last_cti);
    }
    append(batch, std::move(ev));
  }
  TIMR_RETURN_NOT_OK(flush());
  Finish();
  return TakeOutput();
}

}  // namespace timr::temporal
