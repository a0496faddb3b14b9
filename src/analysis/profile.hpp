#pragma once
// The DSE profile schema (kind "adc-dse-profile", version 1) — the
// machine-readable attribution record `adc_dse --profile-out` persists for
// every evaluated design point, and the grid-level analyses computed on
// top of the store.
//
// One PointProfile joins the three views the engine already computes but
// never correlated before:
//
//  * the critical-path segment breakdown (sim/critical_path.hpp): where
//    the simulated cycle time went, per channel / controller / handshake
//    phase;
//  * the area model (area/area_model.hpp): what the control logic costs,
//    per controller and for the whole system;
//  * the transform recipe and its provenance decision ids: *why* this
//    point looks the way it does.
//
// The grid block ranks bottlenecks across all points, extracts the Pareto
// frontier over (control area x cycle time) and emits a machine-readable
// `suggestions` list — the interface a feedback-directed search consumes
// (ROADMAP open item 3).
//
// Like the BENCH schema (perf/record.hpp), this header is deliberately
// closed — emit (write_json) and validate (validate_dse_profile, what
// `adc_obs_check --dse-profile` runs, the document's one reader) live
// together — and deliberately light: it depends only on the JSON writer
// and the checked JsonReader (report/json_parse.hpp), through which the
// validator reads every member, so adc_obs_check stays light.  The builder that fills it
// from FlowPoints lives in analysis/build.hpp on top of the runtime.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adc {

class JsonWriter;
struct JsonValue;

namespace analysis {

inline constexpr const char* kProfileKind = "adc-dse-profile";
inline constexpr int kProfileVersion = 1;

// One contiguous critical-path chain (mirrors sim::CriticalChain, kept
// dependency-free here like perf::BenchStage mirrors StageTiming).
struct ChainRef {
  std::string phase;
  std::string controller;  // "" renders as "(channels)" upstream
  std::string label;
  std::int64_t ticks = 0;
  std::size_t events = 0;
};

// Per-controller control-logic cost (area_model numbers, precomputed so
// readers never need the formula or the logic stack).
struct AreaRow {
  std::string name;
  std::size_t products = 0;
  std::size_t literals = 0;
  std::size_t state_bits = 0;
  std::size_t outputs = 0;
  std::size_t transistors = 0;
};

struct PointProfile {
  std::size_t index = 0;  // position in the evaluated grid
  std::string benchmark;
  std::string script;  // normalized recipe rendering
  std::string status;  // "ok", "deadlock", ...
  bool ok = false;

  // Cycle time (the event simulation's finish time) and how much of it
  // the critical-path walk attributed.
  std::int64_t cycle_time = 0;
  std::int64_t attributed = 0;
  double attributed_fraction = 0.0;
  bool has_attribution = false;  // segments present (simulated + logged)

  // Control area.
  std::vector<AreaRow> area;
  std::size_t channels = 0;           // global ready wires
  std::size_t area_transistors = 0;   // controllers + channel wiring

  // Critical-path aggregations (keys as critical_path.hpp renders them;
  // by_controller_phase keys are "<controller>/<phase>").
  std::map<std::string, std::int64_t> by_phase;
  std::map<std::string, std::int64_t> by_controller;
  std::map<std::string, std::int64_t> by_channel;
  std::map<std::string, std::int64_t> by_controller_phase;
  std::vector<ChainRef> top_chains;  // longest first
  ChainRef dominant;                 // the single longest chain

  // Recipe steps (normalized, in order) and the provenance decision tally
  // ("pass.kind" -> count; empty when the run skipped provenance).
  std::vector<std::string> recipe;
  std::map<std::string, std::size_t> decisions;
};

struct BottleneckRow {
  std::string name;
  std::int64_t ticks = 0;   // total attributed across all points
  std::size_t points = 0;   // points whose critical path crosses it
};

struct FrontierEntry {
  std::size_t index = 0;
  std::size_t area_transistors = 0;
  std::int64_t cycle_time = 0;
};

struct DominatedEntry {
  std::size_t index = 0;
  std::size_t dominated_by = 0;  // a frontier member that dominates it
};

// One machine-readable optimization target: a segment whose attributed
// latency makes it a high-value candidate for the next GT/LT.
struct Suggestion {
  std::size_t rank = 0;     // 1 = highest value
  std::string kind;         // "channel" | "controller"
  std::string name;
  std::int64_t ticks = 0;
  std::vector<std::string> hints;  // transform steps to try ("gt5", "lt", ...)
  std::string rationale;
};

struct GridAnalysis {
  std::vector<BottleneckRow> channels;     // ticks-descending
  std::vector<BottleneckRow> controllers;  // ticks-descending
  std::vector<FrontierEntry> frontier;     // cycle-time ascending
  std::vector<DominatedEntry> dominated;
  std::vector<Suggestion> suggestions;     // rank-ascending
};

struct DseProfile {
  int version = kProfileVersion;
  std::string tool;  // "adc_dse", "adc_synth"
  std::vector<PointProfile> points;
  GridAnalysis grid;

  const PointProfile* find(std::size_t index) const;
};

// --- serialization ---------------------------------------------------------

void write_json(JsonWriter& w, const PointProfile& p);
void write_json(JsonWriter& w, const DseProfile& prof);
std::string to_json(const DseProfile& prof, bool pretty = true);

// Schema + internal-consistency check without throwing: every problem as
// one line (empty = valid).  This is what `adc_obs_check --dse-profile`
// prints.  Beyond structure it re-derives the books: per-point phase
// segments must sum to the attributed total, ok points must attribute
// >= 95% of their cycle time, per-controller transistor counts must match
// the area model, frontier/dominated indices must partition the simulated
// ok points and every dominated point must name a frontier dominator.
std::vector<std::string> validate_dse_profile(const JsonValue& doc);

}  // namespace analysis
}  // namespace adc
