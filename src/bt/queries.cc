#include "bt/queries.h"

#include <cmath>

namespace timr::bt {

using temporal::AlterLifetimeSpec;
using temporal::PartitionSpec;
using temporal::Query;

Query BtInput() { return Query::Input(kBtInput, UnifiedSchema()); }

namespace {

/// The per-user bot detector of Figure 11: within one user's sub-stream,
/// count clicks and searches over a hopping window and keep intervals where
/// either count exceeds its threshold.
Query PerUserBotDetector(Query user_stream, const BtQueryConfig& config) {
  auto branch = [&](int64_t stream_id, int64_t threshold) {
    return user_stream.WhereEq(kColStreamId, Value(stream_id))
        .HoppingWindow(config.profile_window, config.bot_hop)
        .Count("cnt")
        .WhereCmp("cnt", temporal::CmpOp::kGt, Value(threshold));
  };
  Query clicks = branch(kStreamClick, config.bot_click_threshold);
  Query searches = branch(kStreamKeyword, config.bot_search_threshold);
  return Query::Union(clicks, searches);
}

}  // namespace

Query BotStream(const Query& input, const BtQueryConfig& config) {
  return input.GroupApply({kColUserId}, [&](Query user_stream) {
    return PerUserBotDetector(std::move(user_stream), config);
  });
}

Query BotElimination(const Query& input, const BtQueryConfig& config) {
  // AntiSemiJoin the original point stream with the bot intervals: only
  // events of users currently on the bot list are suppressed.
  return Query::AntiSemiJoin(input, BotStream(input, config), {kColUserId},
                             {kColUserId});
}

Schema TrainDataSchema() {
  return Schema::Of({{"Label", ValueType::kInt64},
                     {"UserId", ValueType::kInt64},
                     {"AdId", ValueType::kInt64},
                     {"Keyword", ValueType::kInt64},
                     {"KwCount", ValueType::kInt64}});
}

Query GenTrainData(const Query& clean_input, const BtQueryConfig& config,
                   Annotation annotation) {
  Query input = clean_input;
  if (annotation == Annotation::kStandard) {
    // Example 3's optimized choice: one fragment partitioned by {UserId};
    // a {UserId} partitioning implies a {UserId, Keyword} partitioning for
    // the UBP GroupApply.
    input = input.Exchange(PartitionSpec::ByKeys({kColUserId}));
  }

  // --- Click / non-click examples (paper: S1). ---
  Query impressions = input.WhereEq(kColStreamId, Value(kStreamImpression));
  Query clicks = input.WhereEq(kColStreamId, Value(kStreamClick));
  // Figure 12's "LE = OldLE - 5min": a click covers the preceding horizon so
  // the AntiSemiJoin removes the impression it resulted from.
  Query clicks_back = clicks.AlterLifetime(AlterLifetimeSpec::ShiftAndWindow(
      -config.click_horizon, config.click_horizon + temporal::kTick));
  Query non_clicks = Query::AntiSemiJoin(impressions, clicks_back,
                                         {kColUserId, kColKwAdId},
                                         {kColUserId, kColKwAdId});
  Query examples = Query::Union(non_clicks, clicks);  // StreamId is the label

  // --- Per-(user, keyword) behavior profiles, refreshed on every activity
  // (paper: S2, the sparse UBP representation). ---
  Query keywords = input.WhereEq(kColStreamId, Value(kStreamKeyword));
  if (annotation == Annotation::kNaive) {
    keywords = keywords.Exchange(PartitionSpec::ByKeys({kColUserId, kColKwAdId}));
  }
  Query ubp = keywords.GroupApply({kColUserId, kColKwAdId}, [&](Query g) {
    return g.Window(config.profile_window).Count("KwCount");
  });
  if (annotation == Annotation::kNaive) {
    ubp = ubp.Exchange(PartitionSpec::ByKeys({kColUserId}));
  }

  // --- Attach the profile active at each example's instant. ---
  Query joined = Query::TemporalJoin(examples, ubp, {kColUserId}, {kColUserId});
  Schema js = joined.schema();
  const int label = js.IndexOf(kColStreamId).ValueOrDie();
  const int user = js.IndexOf(kColUserId).ValueOrDie();
  const int ad = js.IndexOf(kColKwAdId).ValueOrDie();
  // The UBP side's key columns got collision-suffixed by Concat.
  const int keyword = js.IndexOf("KwAdId_2").ValueOrDie();
  const int kw_count = js.IndexOf("KwCount").ValueOrDie();
  temporal::ProjectSpec spec;
  spec.exprs.push_back(temporal::ProjectExpr::Column("Label", label));
  spec.exprs.push_back(temporal::ProjectExpr::Column("UserId", user));
  spec.exprs.push_back(temporal::ProjectExpr::Column("AdId", ad));
  spec.exprs.push_back(temporal::ProjectExpr::Column("Keyword", keyword));
  spec.exprs.push_back(temporal::ProjectExpr::Column("KwCount", kw_count));
  return joined.Project(std::move(spec));
}

Schema FeatureScoreSchema() {
  return Schema::Of({{"AdId", ValueType::kInt64},
                     {"Keyword", ValueType::kInt64},
                     {"ClicksWith", ValueType::kInt64},
                     {"ExamplesWith", ValueType::kInt64},
                     {"ClicksTotal", ValueType::kInt64},
                     {"ExamplesTotal", ValueType::kInt64},
                     {"Z", ValueType::kDouble}});
}

double TwoProportionZ(int64_t clicks_with, int64_t examples_with,
                      int64_t clicks_total, int64_t examples_total,
                      int64_t min_support) {
  const int64_t clicks_without = clicks_total - clicks_with;
  const int64_t examples_without = examples_total - examples_with;
  if (examples_with < min_support || examples_without < min_support ||
      clicks_without < 1) {
    return 0.0;
  }
  // Laplace-smoothed proportions. The paper's >= 5-successes-per-side rule
  // keeps the unpooled statistic away from its p(1-p)=0 degeneracy; at
  // simulation scale strong negatives legitimately have ~0 clicks-with, so we
  // regularize instead — half-a-click smoothing bounds |z| by the actual
  // observation volume and leaves well-supported scores essentially unchanged.
  const double pk = (static_cast<double>(clicks_with) + 0.5) /
                    (static_cast<double>(examples_with) + 1.0);
  const double pn = (static_cast<double>(clicks_without) + 0.5) /
                    (static_cast<double>(examples_without) + 1.0);
  const double var = pk * (1 - pk) / static_cast<double>(examples_with) +
                     pn * (1 - pn) / static_cast<double>(examples_without);
  if (var <= 0) return 0.0;
  return (pk - pn) / std::sqrt(var);
}

Query FeatureScores(const Query& clean_input, const Query& train_data,
                    const BtQueryConfig& config, Annotation annotation) {
  const temporal::Timestamp period = config.selection_period;

  // TotalCount (Figure 13 left): per-ad click and impression totals over the
  // elimination period, computed from the clean composite stream.
  auto totals = [&](Query q, std::vector<std::string> keys, const char* out) {
    return q.GroupApply(std::move(keys), [&](Query g) {
      return g.HoppingWindow(period, period).Count(out);
    });
  };

  // Rename the ad column to AdId up front so every downstream partitioning
  // key is {AdId} regardless of which side it came from — exchanges feeding
  // one fragment must agree on the key (paper footnote 1).
  temporal::ProjectSpec label_ad;
  label_ad.exprs.push_back(temporal::ProjectExpr::Column("Label", 0));
  label_ad.exprs.push_back(temporal::ProjectExpr::Column("AdId", 2));
  Query per_ad =
      clean_input
          .WhereCmp(kColStreamId, temporal::CmpOp::kNe, Value(kStreamKeyword))
          .Project(std::move(label_ad));
  Query train = train_data;
  if (annotation != Annotation::kNone) {
    per_ad = per_ad.Exchange(PartitionSpec::ByKeys({"AdId"}));
    train = train.Exchange(PartitionSpec::ByKeys({"AdId", "Keyword"}));
  }

  // Click counts are computed as Sum(Label) over the *unfiltered* stream
  // (labels are 0/1), not as Count over a click-filtered stream: a filtered
  // Count emits nothing for keywords whose examples were never clicked, and
  // the subsequent inner join would silently drop exactly the strongly
  // negative keywords the z-test is after.
  auto sums = [&](Query q, std::vector<std::string> keys, const char* col,
                  const char* out) {
    return q.GroupApply(std::move(keys), [&](Query g) {
      return g.HoppingWindow(period, period)
          .Aggregate(temporal::AggregateSpec::Sum(col, out));
    });
  };

  // Every impression becomes exactly one example (click or non-click), so the
  // per-ad example total is the impression count.
  Query total_all =
      totals(per_ad.WhereEq("Label", Value(kStreamImpression)), {"AdId"},
             "ExamplesTotal");
  Query total_clicks = sums(per_ad, {"AdId"}, "Label", "ClicksTotal");
  // PerKWCount (Figure 13 right): counts over the training rows, which carry
  // one row per (example, profile keyword).
  Query per_kw_all = totals(train, {"AdId", "Keyword"}, "ExamplesWith");
  Query per_kw_clicks = sums(train, {"AdId", "Keyword"}, "Label", "ClicksWith");

  Query ad_totals =
      Query::TemporalJoin(total_clicks, total_all, {"AdId"}, {"AdId"});
  Query kw_counts = Query::TemporalJoin(per_kw_clicks, per_kw_all,
                                        {"AdId", "Keyword"}, {"AdId", "Keyword"});
  if (annotation != Annotation::kNone) {
    // CalcScore's join brings the per-keyword stream to the per-ad totals.
    kw_counts = kw_counts.Exchange(PartitionSpec::ByKeys({"AdId"}));
    ad_totals = ad_totals.Exchange(PartitionSpec::ByKeys({"AdId"}));
  }
  Query scored = Query::TemporalJoin(kw_counts, ad_totals, {"AdId"}, {"AdId"});

  Schema ss = scored.schema();
  const int ad_idx = ss.IndexOf("AdId").ValueOrDie();
  const int kw_idx = ss.IndexOf("Keyword").ValueOrDie();
  const int ck = ss.IndexOf("ClicksWith").ValueOrDie();
  const int ik = ss.IndexOf("ExamplesWith").ValueOrDie();
  const int c = ss.IndexOf("ClicksTotal").ValueOrDie();
  const int i_all = ss.IndexOf("ExamplesTotal").ValueOrDie();
  return scored.Project(
      [=](const Row& r) {
        // ClicksWith / ClicksTotal come from Sum and are doubles holding
        // integral values; coerce back to counts.
        const auto cw = static_cast<int64_t>(r[ck].AsNumeric() + 0.5);
        const auto ct = static_cast<int64_t>(r[c].AsNumeric() + 0.5);
        const double z =
            TwoProportionZ(cw, r[ik].AsInt64(), ct, r[i_all].AsInt64());
        return Row{r[ad_idx], r[kw_idx],  Value(cw),
                   r[ik],     Value(ct),  r[i_all],
                   Value(z)};
      },
      FeatureScoreSchema());
}

std::vector<std::pair<std::string, temporal::PlanNodePtr>> BtCqSuite(
    const BtQueryConfig& config) {
  std::vector<std::pair<std::string, temporal::PlanNodePtr>> suite;
  auto add = [&suite](const char* name, const Query& q) {
    suite.emplace_back(name, q.node());
  };
  // Every entry rebuilds its chain from a fresh BtInput(), so any sub-plan
  // the sharing analysis reports as common is a genuine structural
  // repetition, not an artifact of shared nodes.
  auto clean = [&config] { return BotElimination(BtInput(), config); };
  auto filtered = [&clean](int64_t stream_id) {
    return clean().WhereEq(kColStreamId, Value(stream_id));
  };

  // The pipeline stages themselves.
  add("bot_stream", BotStream(BtInput(), config));
  add("bot_elimination", clean());
  add("train_data", GenTrainData(clean(), config));
  {
    Query c = clean();
    add("feature_scores", FeatureScores(c, GenTrainData(c, config), config));
  }
  add("bt_standard", BtFeaturePipeline(config, Annotation::kStandard));
  add("bt_naive", BtFeaturePipeline(config, Annotation::kNaive));

  // Cleaned per-stream views feeding downstream consumers.
  add("clean_clicks", filtered(kStreamClick));
  add("clean_impressions", filtered(kStreamImpression));
  add("clean_keywords", filtered(kStreamKeyword));

  // Ad-level monitoring: click/impression rates and their ratio.
  auto per_ad_rate = [&](int64_t stream_id, const char* out) {
    return filtered(stream_id).GroupApply(
        {kColKwAdId}, [&config, out](Query g) {
          return g.Window(config.profile_window).Count(out);
        });
  };
  Query ad_clicks = per_ad_rate(kStreamClick, "Clicks");
  Query ad_impressions = per_ad_rate(kStreamImpression, "Impressions");
  add("ad_clicks", ad_clicks);
  add("ad_impressions", ad_impressions);
  {
    Query joined = Query::TemporalJoin(ad_clicks, ad_impressions, {kColKwAdId},
                                       {kColKwAdId});
    Schema js = joined.schema();
    temporal::ProjectSpec ctr;
    ctr.exprs.push_back(temporal::ProjectExpr::Column(
        "AdId", js.IndexOf(kColKwAdId).ValueOrDie()));
    ctr.exprs.push_back(temporal::ProjectExpr::Arith(
        "Ctr", js.IndexOf("Clicks").ValueOrDie(),
        temporal::ProjectExpr::ArithOp::kDiv,
        js.IndexOf("Impressions").ValueOrDie()));
    add("ad_ctr", joined.Project(std::move(ctr)));
  }

  // User-level monitoring.
  add("user_activity", clean().GroupApply({kColUserId}, [&config](Query g) {
    return g.Window(config.profile_window).Count("Events");
  }));
  add("ubp", filtered(kStreamKeyword)
                 .GroupApply({kColUserId, kColKwAdId}, [&config](Query g) {
                   return g.Window(config.profile_window).Count("KwCount");
                 }));

  // The S1 example stream of Figure 12, standalone (GenTrainData's prefix).
  {
    Query input = clean();
    Query impressions = input.WhereEq(kColStreamId, Value(kStreamImpression));
    Query clicks = input.WhereEq(kColStreamId, Value(kStreamClick));
    Query clicks_back = clicks.AlterLifetime(AlterLifetimeSpec::ShiftAndWindow(
        -config.click_horizon, config.click_horizon + temporal::kTick));
    Query non_clicks = Query::AntiSemiJoin(impressions, clicks_back,
                                           {kColUserId, kColKwAdId},
                                           {kColUserId, kColKwAdId});
    add("examples", Query::Union(non_clicks, clicks));
  }

  // Bot-list observability: the two detector branches and the live bot count.
  auto bot_branch = [&config](int64_t stream_id, int64_t threshold) {
    return BtInput().GroupApply({kColUserId}, [&](Query g) {
      return g.WhereEq(kColStreamId, Value(stream_id))
          .HoppingWindow(config.profile_window, config.bot_hop)
          .Count("cnt")
          .WhereCmp("cnt", temporal::CmpOp::kGt, Value(threshold));
    });
  };
  add("bot_clickers", bot_branch(kStreamClick, config.bot_click_threshold));
  add("bot_searchers",
      bot_branch(kStreamKeyword, config.bot_search_threshold));
  add("active_bots", BotStream(BtInput(), config)
                         .HoppingWindow(config.bot_hop, config.bot_hop)
                         .Count("ActiveBots"));

  // Volume dashboards.
  add("hourly_volume",
      clean().HoppingWindow(temporal::kHour, temporal::kHour).Count("Events"));
  add("keyword_volume",
      filtered(kStreamKeyword).GroupApply({kColKwAdId}, [&config](Query g) {
        return g.HoppingWindow(config.selection_period, config.selection_period)
            .Count("Searches");
      }));
  return suite;
}

Query BtFeaturePipeline(const BtQueryConfig& config, Annotation annotation) {
  Query input = BtInput();
  if (annotation != Annotation::kNone) {
    input = input.Exchange(PartitionSpec::ByKeys({kColUserId}));
  }
  Query clean = BotElimination(input, config);
  // GenTrainData reads the cleaned stream through the {UserId} exchange,
  // which materializes it as a fragment. FeatureScores gets the same `clean`
  // node without that exchange, so its per-ad fragment reads that dataset
  // under {UserId} (MakeFragments): BotElimination runs once, over BtLog.
  Query clean_by_user =
      annotation != Annotation::kNone
          ? clean.Exchange(PartitionSpec::ByKeys({kColUserId}))
          : clean;
  Query train = GenTrainData(clean_by_user, config, Annotation::kNone);
  return FeatureScores(clean, train, config, annotation);
}

}  // namespace timr::bt
