#include "analysis/profile.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace adc {
namespace analysis {

namespace {

void write_map(JsonWriter& w, const char* key,
               const std::map<std::string, std::int64_t>& m) {
  w.key(key);
  w.begin_object();
  for (const auto& [k, v] : m) w.kv(k, v);
  w.end_object();
}

void write_chain(JsonWriter& w, const ChainRef& c) {
  w.begin_object();
  w.kv("phase", c.phase);
  w.kv("controller", c.controller);
  w.kv("label", c.label);
  w.kv("ticks", c.ticks);
  w.kv("events", static_cast<std::uint64_t>(c.events));
  w.end_object();
}

}  // namespace

const PointProfile* DseProfile::find(std::size_t index) const {
  for (const auto& p : points)
    if (p.index == index) return &p;
  return nullptr;
}

void write_json(JsonWriter& w, const PointProfile& p) {
  w.begin_object();
  w.kv("index", static_cast<std::uint64_t>(p.index));
  w.kv("benchmark", p.benchmark);
  w.kv("script", p.script);
  w.kv("status", p.status);
  w.kv("ok", p.ok);
  w.kv("cycle_time", p.cycle_time);
  w.kv("attributed", p.attributed);
  w.kv("attributed_fraction", p.attributed_fraction);
  w.key("area");
  w.begin_object();
  w.key("controllers");
  w.begin_array();
  for (const auto& a : p.area) {
    w.begin_object();
    w.kv("name", a.name);
    w.kv("products", a.products);
    w.kv("literals", a.literals);
    w.kv("state_bits", a.state_bits);
    w.kv("outputs", a.outputs);
    w.kv("transistors", a.transistors);
    w.end_object();
  }
  w.end_array();
  w.kv("channels", p.channels);
  w.kv("total_transistors", p.area_transistors);
  w.end_object();
  if (p.has_attribution) {
    w.key("segments");
    w.begin_object();
    write_map(w, "by_phase", p.by_phase);
    write_map(w, "by_controller", p.by_controller);
    write_map(w, "by_channel", p.by_channel);
    write_map(w, "by_controller_phase", p.by_controller_phase);
    w.end_object();
    w.key("top_chains");
    w.begin_array();
    for (const auto& c : p.top_chains) write_chain(w, c);
    w.end_array();
    w.key("dominant");
    write_chain(w, p.dominant);
  }
  w.key("recipe");
  w.begin_array();
  for (const auto& s : p.recipe) w.value(s);
  w.end_array();
  w.key("decisions");
  w.begin_object();
  for (const auto& [k, v] : p.decisions) w.kv(k, static_cast<std::uint64_t>(v));
  w.end_object();
  w.end_object();
}

void write_json(JsonWriter& w, const DseProfile& prof) {
  w.begin_object();
  w.kv("kind", kProfileKind);
  w.kv("version", prof.version);
  w.kv("tool", prof.tool);
  w.key("points");
  w.begin_array();
  for (const auto& p : prof.points) write_json(w, p);
  w.end_array();
  w.key("grid");
  w.begin_object();
  w.key("bottlenecks");
  w.begin_object();
  for (const char* kind : {"channels", "controllers"}) {
    const auto& rows = std::string(kind) == "channels" ? prof.grid.channels
                                                       : prof.grid.controllers;
    w.key(kind);
    w.begin_array();
    for (const auto& b : rows) {
      w.begin_object();
      w.kv("name", b.name);
      w.kv("ticks", b.ticks);
      w.kv("points", static_cast<std::uint64_t>(b.points));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("frontier");
  w.begin_array();
  for (const auto& f : prof.grid.frontier) {
    w.begin_object();
    w.kv("index", static_cast<std::uint64_t>(f.index));
    w.kv("area_transistors", f.area_transistors);
    w.kv("cycle_time", f.cycle_time);
    w.end_object();
  }
  w.end_array();
  w.key("dominated");
  w.begin_array();
  for (const auto& d : prof.grid.dominated) {
    w.begin_object();
    w.kv("index", static_cast<std::uint64_t>(d.index));
    w.kv("dominated_by", static_cast<std::uint64_t>(d.dominated_by));
    w.end_object();
  }
  w.end_array();
  w.key("suggestions");
  w.begin_array();
  for (const auto& s : prof.grid.suggestions) {
    w.begin_object();
    w.kv("rank", static_cast<std::uint64_t>(s.rank));
    w.kv("kind", s.kind);
    w.kv("name", s.name);
    w.kv("ticks", s.ticks);
    w.key("hints");
    w.begin_array();
    for (const auto& h : s.hints) w.value(h);
    w.end_array();
    w.kv("rationale", s.rationale);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
}

std::string to_json(const DseProfile& prof, bool pretty) {
  JsonWriter w(pretty);
  write_json(w, prof);
  return w.str();
}

// --- validate --------------------------------------------------------------

namespace {

std::string str(const JsonValue& o, const char* k) {
  const JsonValue* v = o.find(k);
  return v && v->is_string() ? v->string : std::string();
}

// Member `k` of `o` as an integer of type T: 0 when absent, and a problem
// when present but not an integer representable in T (casting such a
// double would be undefined behaviour).
template <class T>
T integer(const JsonValue& o, const char* k, const std::string& where,
          std::vector<std::string>& problems) {
  const JsonValue* v = o.find(k);
  if (!v) return 0;
  if (std::optional<T> n = json_integer<T>(*v)) return *n;
  problems.push_back(where + ": '" + k + "' is not an integer in range");
  return 0;
}

}  // namespace

std::vector<std::string> validate_dse_profile(const JsonValue& doc) {
  std::vector<std::string> problems;
  auto bad = [&](const std::string& what) { problems.push_back(what); };
  if (!doc.is_object()) return {"not a JSON object"};
  if (str(doc, "kind") != kProfileKind)
    bad("kind is not '" + std::string(kProfileKind) + "'");
  if (integer<int>(doc, "version", "document", problems) != kProfileVersion)
    bad("version is not " + std::to_string(kProfileVersion));
  if (str(doc, "tool").empty()) bad("missing tool");
  const JsonValue* pts = doc.find("points");
  if (!pts || !pts->is_array()) {
    bad("missing points array");
    return problems;
  }

  std::set<std::size_t> sim_ok;  // ok points with a cycle time
  std::size_t pos = 0;
  for (const JsonValue& o : pts->array) {
    std::string where = "point " + std::to_string(pos);
    if (!o.is_object()) {
      bad(where + ": not an object");
      ++pos;
      continue;
    }
    for (const char* key : {"benchmark", "script", "status"})
      if (!o.find(key)) bad(where + ": missing '" + key + "'");
    auto count = [&](const JsonValue& obj, const char* k) {
      return integer<std::size_t>(obj, k, where, problems);
    };
    if (count(o, "index") != pos) bad(where + ": index does not match its position");
    const bool ok = o.find("ok") && o.at("ok").boolean;
    const auto cycle = integer<std::int64_t>(o, "cycle_time", where, problems);
    const auto attributed = integer<std::int64_t>(o, "attributed", where, problems);
    // The area books: per-controller transistor counts must match the
    // model (2/AND-literal + 2/OR-input + 8/state latch + 4/output keeper)
    // and the total must add the 6-transistor channel transition
    // detectors.  Re-derived here on purpose — an emitter bug cannot
    // validate its own arithmetic.
    const JsonValue* area = o.find("area");
    if (!area || !area->is_object()) {
      bad(where + ": missing area block");
    } else {
      std::size_t sum = 0;
      if (const JsonValue* cs = area->find("controllers"); cs && cs->is_array())
        for (const JsonValue& c : cs->array) {
          std::size_t expect = 2 * count(c, "literals") + 2 * count(c, "products") +
                               8 * count(c, "state_bits") + 4 * count(c, "outputs");
          if (count(c, "transistors") != expect)
            bad(where + ": controller '" + str(c, "name") +
                "' transistors disagree with the area model");
          sum += expect;
        }
      sum += 6 * count(*area, "channels");
      if (count(*area, "total_transistors") != sum)
        bad(where + ": total_transistors does not sum controllers + wiring");
    }
    if (const JsonValue* seg = o.find("segments")) {
      if (!seg->is_object()) {
        bad(where + ": segments is not an object");
      } else {
        std::int64_t phase_sum = 0;
        if (const JsonValue* phases = seg->find("by_phase"); phases && phases->is_object())
          for (const auto& [k, v] : phases->object) {
            std::optional<std::int64_t> ticks = json_integer<std::int64_t>(v);
            if (!ticks || __builtin_add_overflow(phase_sum, *ticks, &phase_sum))
              bad(where + ": by_phase '" + k + "' is not an integer in range");
          }
        if (phase_sum != attributed)
          bad(where + ": by_phase segments sum to " + std::to_string(phase_sum) +
              ", not the attributed " + std::to_string(attributed));
        if (attributed > cycle)
          bad(where + ": attributed more than the cycle time");
        if (ok && cycle > 0 &&
            static_cast<double>(attributed) < 0.95 * static_cast<double>(cycle))
          bad(where + ": ok point attributes < 95% of its cycle time");
      }
    }
    if (ok && cycle > 0) sim_ok.insert(pos);
    ++pos;
  }

  const JsonValue* grid = doc.find("grid");
  if (!grid || !grid->is_object()) {
    bad("missing grid block");
    return problems;
  }
  for (const char* kind : {"channels", "controllers"}) {
    const JsonValue* bn = grid->find("bottlenecks");
    const JsonValue* arr = bn ? bn->find(kind) : nullptr;
    if (!arr || !arr->is_array()) {
      bad(std::string("missing bottleneck ranking '") + kind + "'");
      continue;
    }
    std::int64_t last = -1;
    bool first = true;
    for (const JsonValue& b : arr->array) {
      auto t = integer<std::int64_t>(b, "ticks", "bottleneck", problems);
      if (!first && t > last)
        bad(std::string("bottleneck ranking '") + kind + "' is not descending");
      last = t;
      first = false;
    }
  }
  std::set<std::size_t> frontier;
  if (const JsonValue* f = grid->find("frontier"); f && f->is_array()) {
    for (const JsonValue& e : f->array) {
      auto idx = integer<std::size_t>(e, "index", "frontier", problems);
      if (!sim_ok.count(idx))
        bad("frontier names point " + std::to_string(idx) +
            ", which is not a simulated ok point");
      frontier.insert(idx);
    }
  } else {
    bad("missing frontier array");
  }
  std::size_t dominated_count = 0;
  if (const JsonValue* d = grid->find("dominated"); d && d->is_array()) {
    for (const JsonValue& e : d->array) {
      ++dominated_count;
      auto idx = integer<std::size_t>(e, "index", "dominated", problems);
      auto by = integer<std::size_t>(e, "dominated_by", "dominated", problems);
      if (frontier.count(idx))
        bad("point " + std::to_string(idx) + " is both frontier and dominated");
      if (!frontier.count(by))
        bad("point " + std::to_string(idx) + " dominated by " +
            std::to_string(by) + ", which is not on the frontier");
    }
  }
  if (frontier.size() + dominated_count != sim_ok.size())
    bad("frontier + dominated do not partition the simulated ok points");
  if (const JsonValue* s = grid->find("suggestions"); s && s->is_array()) {
    std::size_t rank = 1;
    for (const JsonValue& e : s->array) {
      if (integer<std::size_t>(e, "rank", "suggestion", problems) != rank)
        bad("suggestion ranks are not 1..k ascending");
      ++rank;
    }
  } else {
    bad("missing suggestions array");
  }
  return problems;
}

}  // namespace analysis
}  // namespace adc
