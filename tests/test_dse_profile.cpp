// The design-space explainability stack (src/analysis/): the DSE profile
// schema emits every field and self-validates, the grid analyses (bottleneck
// ranking, Pareto frontier, suggestions) are correct and deterministic on
// synthetic stores, the serving daemon's incremental frontier agrees with
// the batch computation, differential explain attributes latency deltas,
// and the builder fills a schema-valid profile from a real flow point.

#include "analysis/profile.hpp"

#include <gtest/gtest.h>

#include "analysis/build.hpp"
#include "analysis/explain.hpp"
#include "analysis/grid.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "runtime/flow.hpp"

namespace adc {
namespace analysis {
namespace {

// A synthetic simulated-ok point whose books balance: per-controller
// transistors follow the area model, by_phase sums to `attributed`, and
// the attribution covers >= 95% of the cycle time.
PointProfile make_point(std::size_t index, std::size_t area_extra,
                        std::int64_t cycle) {
  PointProfile p;
  p.index = index;
  p.benchmark = "synthetic";
  p.script = "gt1; lt";
  p.status = "ok";
  p.ok = true;
  p.cycle_time = cycle;
  p.attributed = cycle;
  p.attributed_fraction = 1.0;
  p.has_attribution = true;

  AreaRow a;
  a.name = "ALU1";
  a.products = 4;
  a.literals = 10 + area_extra;
  a.state_bits = 3;
  a.outputs = 5;
  a.transistors = 2 * a.literals + 2 * a.products + 8 * a.state_bits + 4 * a.outputs;
  p.area.push_back(a);
  p.channels = 2;
  p.area_transistors = a.transistors + 6 * p.channels;

  p.by_phase = {{"request-wait", cycle / 2}, {"op", cycle - cycle / 2}};
  p.by_controller = {{"ALU1", cycle - cycle / 2}, {"(channels)", cycle / 2}};
  p.by_channel = {{"rdy_MUL1_to_ALU1", cycle / 2}};
  p.by_controller_phase = {{"ALU1/op", cycle - cycle / 2}};
  p.top_chains.push_back({"op", "ALU1", "ALU1", cycle - cycle / 2, 3});
  p.dominant = p.top_chains.front();
  p.recipe = {"gt1", "lt"};
  p.decisions = {{"gt1.sync_arc_removed", 3}, {"lt.transitions_folded", 4}};
  return p;
}

DseProfile make_profile(std::vector<PointProfile> points) {
  DseProfile prof;
  prof.tool = "test";
  prof.grid = analyze_grid(points);
  prof.points = std::move(points);
  return prof;
}

// Mutable lookup into a parsed JsonValue object (the test corrupts
// documents member by member to exercise the validator).
JsonValue* mut(JsonValue& o, const std::string& key) {
  for (auto& [k, v] : o.object)
    if (k == key) return &v;
  return nullptr;
}

// --- schema emission and validation ----------------------------------------

// An emitted {"k": n, ...} object as the map it was written from.
std::map<std::string, std::int64_t> as_map(const JsonValue& o) {
  std::map<std::string, std::int64_t> m;
  for (const auto& [k, v] : o.object) m[k] = static_cast<std::int64_t>(v.number);
  return m;
}

TEST(DseProfile, EmitsEveryField) {
  DseProfile prof = make_profile({make_point(0, 0, 100), make_point(1, 5, 80)});
  JsonValue doc = parse_json(to_json(prof));
  ASSERT_EQ(doc.at("points").array.size(), 2u);
  EXPECT_EQ(doc.at("tool").string, "test");
  const JsonValue& p = doc.at("points").array[1];
  EXPECT_EQ(p.at("index").number, 1);
  EXPECT_EQ(p.at("script").string, "gt1; lt");
  EXPECT_EQ(p.at("cycle_time").number, 80);
  EXPECT_EQ(p.at("area").at("total_transistors").number,
            static_cast<double>(prof.points[1].area_transistors));
  ASSERT_NE(p.find("segments"), nullptr) << "attribution present";
  EXPECT_EQ(as_map(p.at("segments").at("by_phase")), prof.points[1].by_phase);
  EXPECT_EQ(as_map(p.at("segments").at("by_channel")), prof.points[1].by_channel);
  std::vector<std::string> recipe;
  for (const JsonValue& r : p.at("recipe").array) recipe.push_back(r.string);
  EXPECT_EQ(recipe, prof.points[1].recipe);
  std::map<std::string, std::size_t> decisions;
  for (const auto& [k, v] : p.at("decisions").object)
    decisions[k] = static_cast<std::size_t>(v.number);
  EXPECT_EQ(decisions, prof.points[1].decisions);
  const JsonValue& grid = doc.at("grid");
  EXPECT_EQ(grid.at("frontier").array.size(), prof.grid.frontier.size());
  EXPECT_EQ(grid.at("dominated").array.size(), prof.grid.dominated.size());
  EXPECT_EQ(grid.at("suggestions").array.size(), prof.grid.suggestions.size());
}

TEST(DseProfile, ValidatorAcceptsAWellFormedDocument) {
  DseProfile prof = make_profile({make_point(0, 0, 100), make_point(1, 5, 80)});
  JsonValue doc = parse_json(to_json(prof));
  EXPECT_TRUE(validate_dse_profile(doc).empty());
}

TEST(DseProfile, ValidatorRejectsWrongKindAndVersion) {
  DseProfile prof = make_profile({make_point(0, 0, 100)});
  JsonValue doc = parse_json(to_json(prof));
  mut(doc, "kind")->string = "adc-bench";
  EXPECT_FALSE(validate_dse_profile(doc).empty());
  mut(doc, "kind")->string = kProfileKind;
  mut(doc, "version")->number = 99;
  EXPECT_FALSE(validate_dse_profile(doc).empty());

  // Numbers that are no integer of the field's type are problems, never
  // undefined casts.
  const std::pair<const char*, double> out_of_range[] = {
      {"index", -1}, {"index", 0.5}, {"cycle_time", 1e300}};
  for (const auto& [key, value] : out_of_range) {
    JsonValue bad_doc = parse_json(to_json(prof));
    mut(mut(bad_doc, "points")->array[0], key)->number = value;
    const auto problems = validate_dse_profile(bad_doc);
    bool named = false;
    for (const auto& p : problems)
      named |= p.find(std::string("'") + key + "' is not an integer") != std::string::npos;
    EXPECT_TRUE(named) << key << " = " << value;
  }
}

TEST(DseProfile, ValidatorRederivesTheAreaModel) {
  DseProfile prof = make_profile({make_point(0, 0, 100)});
  JsonValue doc = parse_json(to_json(prof));
  JsonValue& point = mut(doc, "points")->array[0];
  JsonValue& area = *mut(point, "area");
  // A controller whose transistor count disagrees with 2l+2p+8sb+4out.
  *mut(area.object[0].second.array[0], "transistors") = [] {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = 1;
    return v;
  }();
  auto problems = validate_dse_profile(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("area model"), std::string::npos);
}

TEST(DseProfile, ValidatorCatchesSegmentSumMismatch) {
  DseProfile prof = make_profile({make_point(0, 0, 100)});
  JsonValue doc = parse_json(to_json(prof));
  JsonValue& point = mut(doc, "points")->array[0];
  mut(*mut(*mut(point, "segments"), "by_phase"), "op")->number += 7;
  auto problems = validate_dse_profile(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("by_phase"), std::string::npos);
}

TEST(DseProfile, ValidatorCatchesUnderAttributedOkPoint) {
  PointProfile p = make_point(0, 0, 100);
  p.attributed = 80;  // < 95% of cycle_time
  p.by_phase = {{"op", 80}};
  DseProfile prof = make_profile({p});
  JsonValue doc = parse_json(to_json(prof));
  auto problems = validate_dse_profile(doc);
  ASSERT_FALSE(problems.empty());
  bool found = false;
  for (const auto& s : problems)
    if (s.find("95%") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(DseProfile, ValidatorCatchesBrokenFrontierBooks) {
  // Point 2 is larger and slower than both others, so it is dominated.
  DseProfile prof = make_profile(
      {make_point(0, 0, 100), make_point(1, 5, 80), make_point(2, 60, 110)});
  JsonValue doc = parse_json(to_json(prof));
  JsonValue& grid = *mut(doc, "grid");
  // Point a dominated entry at an index that is not on the frontier.
  JsonValue& dominated = *mut(grid, "dominated");
  ASSERT_FALSE(dominated.array.empty());
  mut(dominated.array[0], "dominated_by")->number = 42;
  auto problems = validate_dse_profile(doc);
  ASSERT_FALSE(problems.empty());
  bool found = false;
  for (const auto& s : problems)
    if (s.find("not on the frontier") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

// --- grid analyses ----------------------------------------------------------

TEST(GridAnalysis, FrontierDominanceAndDominatorAnnotation) {
  // (area, cycle): 0 = (small, slow), 1 = (large, fast), 2 = dominated by
  // both, 3 = deadlocked (never a candidate).
  PointProfile p0 = make_point(0, 0, 100);
  PointProfile p1 = make_point(1, 50, 60);
  PointProfile p2 = make_point(2, 2, 110);
  PointProfile p3 = make_point(3, 0, 0);
  p3.ok = false;
  p3.status = "deadlock";
  p3.cycle_time = 0;
  GridAnalysis g = analyze_grid({p0, p1, p2, p3});
  ASSERT_EQ(g.frontier.size(), 2u);
  // Cycle-time ascending: the fast/large point first.
  EXPECT_EQ(g.frontier[0].index, 1u);
  EXPECT_EQ(g.frontier[1].index, 0u);
  ASSERT_EQ(g.dominated.size(), 1u);
  EXPECT_EQ(g.dominated[0].index, 2u);
  // p1 is faster but larger than p2, so only p0 dominates it.
  EXPECT_EQ(g.dominated[0].dominated_by, 0u);
}

TEST(GridAnalysis, BottleneckRankingSumsAcrossPointsDescending) {
  PointProfile p0 = make_point(0, 0, 100);
  PointProfile p1 = make_point(1, 5, 80);
  p1.by_channel["rdy_ALU1_to_MUL1"] = 10;
  GridAnalysis g = analyze_grid({p0, p1});
  ASSERT_GE(g.channels.size(), 2u);
  EXPECT_EQ(g.channels[0].name, "rdy_MUL1_to_ALU1");
  EXPECT_EQ(g.channels[0].ticks, 50 + 40);
  EXPECT_EQ(g.channels[0].points, 2u);
  EXPECT_EQ(g.channels[1].name, "rdy_ALU1_to_MUL1");
  EXPECT_EQ(g.channels[1].points, 1u);
  for (std::size_t i = 1; i < g.channels.size(); ++i)
    EXPECT_LE(g.channels[i].ticks, g.channels[i - 1].ticks);
}

TEST(GridAnalysis, SuggestionsAreRankedWithChannelHints) {
  GridAnalysis g = analyze_grid({make_point(0, 0, 100), make_point(1, 5, 80)});
  ASSERT_FALSE(g.suggestions.empty());
  for (std::size_t i = 0; i < g.suggestions.size(); ++i)
    EXPECT_EQ(g.suggestions[i].rank, i + 1);
  // The request channel suggestion proposes concurrency-raising GT steps.
  bool channel_hint = false;
  for (const auto& s : g.suggestions)
    if (s.kind == "channel")
      for (const auto& h : s.hints)
        if (h.rfind("gt", 0) == 0) channel_hint = true;
  EXPECT_TRUE(channel_hint);
}

TEST(GridAnalysis, DeterministicAcrossCalls) {
  std::vector<PointProfile> pts = {make_point(0, 0, 100), make_point(1, 5, 80),
                                   make_point(2, 2, 90)};
  GridAnalysis a = analyze_grid(pts);
  GridAnalysis b = analyze_grid(pts);
  ASSERT_EQ(a.frontier.size(), b.frontier.size());
  for (std::size_t i = 0; i < a.frontier.size(); ++i)
    EXPECT_EQ(a.frontier[i].index, b.frontier[i].index);
  ASSERT_EQ(a.suggestions.size(), b.suggestions.size());
  for (std::size_t i = 0; i < a.suggestions.size(); ++i)
    EXPECT_EQ(a.suggestions[i].name, b.suggestions[i].name);
}

TEST(GridAnalysis, FrontierTrackerAgreesWithBatchAnalysis) {
  std::vector<PointProfile> pts = {make_point(0, 0, 100), make_point(1, 50, 60),
                                   make_point(2, 60, 110), make_point(3, 2, 90)};
  FrontierTracker tracker;
  for (const auto& p : pts) tracker.add(p.area_transistors, p.cycle_time);
  GridAnalysis g = analyze_grid(pts);
  FrontierTracker::Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.points, pts.size());
  EXPECT_EQ(snap.frontier_size, g.frontier.size());
  EXPECT_EQ(snap.dominated, g.dominated.size());
  EXPECT_EQ(snap.best_cycle_time, g.frontier.front().cycle_time);
  std::size_t best_area = g.frontier.front().area_transistors;
  for (const auto& f : g.frontier) best_area = std::min(best_area, f.area_transistors);
  EXPECT_EQ(snap.best_area_transistors, best_area);
}

TEST(GridAnalysis, FrontierTrackerInsertionOrderInvariant) {
  std::vector<PointProfile> pts = {make_point(0, 0, 100), make_point(1, 50, 60),
                                   make_point(2, 60, 110), make_point(3, 2, 90)};
  FrontierTracker fwd, rev;
  for (const auto& p : pts) fwd.add(p.area_transistors, p.cycle_time);
  for (auto it = pts.rbegin(); it != pts.rend(); ++it)
    rev.add(it->area_transistors, it->cycle_time);
  EXPECT_EQ(fwd.snapshot().frontier_size, rev.snapshot().frontier_size);
  EXPECT_EQ(fwd.snapshot().dominated, rev.snapshot().dominated);
  EXPECT_EQ(fwd.snapshot().best_cycle_time, rev.snapshot().best_cycle_time);
  EXPECT_EQ(fwd.snapshot().best_area_transistors,
            rev.snapshot().best_area_transistors);
}

// --- differential explain ---------------------------------------------------

TEST(Explain, AttributesChannelDeltaToDifferingGtDecisions) {
  PointProfile a = make_point(0, 0, 80);
  a.script = "gt1; lt";
  a.recipe = {"gt1", "lt"};
  PointProfile b = make_point(1, 0, 100);
  b.script = "lt";
  b.recipe = {"lt"};
  b.decisions.erase("gt1.sync_arc_removed");
  ExplainReport r = explain_points(a, b);
  EXPECT_EQ(r.cycle_delta, 20);
  EXPECT_EQ(r.only_a, std::vector<std::string>{"gt1"});
  EXPECT_TRUE(r.only_b.empty());
  ASSERT_FALSE(r.deltas.empty());
  // |delta| descending.
  for (std::size_t i = 1; i < r.deltas.size(); ++i)
    EXPECT_LE(std::abs(r.deltas[i].delta), std::abs(r.deltas[i - 1].delta));
  // The channel delta exists and the attribution names the gt step.
  bool channel_delta = false;
  for (const auto& d : r.deltas)
    if (d.kind == "channel" && d.name == "rdy_MUL1_to_ALU1") channel_delta = true;
  EXPECT_TRUE(channel_delta);
  bool names_gt = false;
  for (const auto& s : r.attribution)
    if (s.find("gt1") != std::string::npos) names_gt = true;
  EXPECT_TRUE(names_gt);
  // Renders without crashing and mentions both scripts.
  std::string table = r.to_table();
  EXPECT_NE(table.find("gt1; lt"), std::string::npos);
  JsonWriter w(true);
  write_json(w, r);
  JsonValue doc = parse_json(w.str());
  EXPECT_EQ(doc.at("cycle_delta").number, 20);
}

TEST(Explain, IdenticalPointsProduceAnEmptyDiff) {
  PointProfile p = make_point(0, 0, 80);
  ExplainReport r = explain_points(p, p);
  EXPECT_EQ(r.cycle_delta, 0);
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_TRUE(r.only_a.empty());
  EXPECT_TRUE(r.only_b.empty());
  EXPECT_TRUE(r.decisions.empty());
}

// --- builder on a real flow point -------------------------------------------

TEST(ProfileBuilder, RealFlowPointProducesASchemaValidProfile) {
  FlowRequest req = make_builtin_request(*find_builtin("diffeq"), "gt1; lt");
  req.critical_path = true;
  req.provenance = true;
  FlowExecutor exec(nullptr);
  FlowPoint p = exec.run(req);
  ASSERT_TRUE(p.ok) << p.error;
  DseProfile prof = build_dse_profile({p}, "test");
  JsonValue doc = parse_json(to_json(prof));
  std::vector<std::string> problems = validate_dse_profile(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  ASSERT_EQ(prof.points.size(), 1u);
  const PointProfile& pp = prof.points[0];
  EXPECT_TRUE(pp.has_attribution);
  EXPECT_GE(pp.attributed_fraction, 0.95);
  EXPECT_EQ(pp.area_transistors, point_area_transistors(p));
  EXPECT_EQ(pp.recipe, (std::vector<std::string>{"gt1", "lt"}));
  EXPECT_FALSE(pp.decisions.empty());
  ASSERT_EQ(prof.grid.frontier.size(), 1u);
  EXPECT_TRUE(prof.grid.dominated.empty());
}

}  // namespace
}  // namespace analysis
}  // namespace adc
