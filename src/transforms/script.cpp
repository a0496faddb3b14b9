#include "transforms/script.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "transforms/global.hpp"
#include "transforms/gt5.hpp"

namespace adc {

namespace {

[[noreturn]] void fail(const std::string& msg, std::size_t pos) {
  throw std::invalid_argument("script error at offset " + std::to_string(pos) + ": " + msg);
}

struct Scanner {
  const std::string& s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
  }
  bool eof() {
    skip_ws();
    return pos >= s.size();
  }
  bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  std::string ident() {
    skip_ws();
    std::size_t start = pos;
    while (pos < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[pos])) || s[pos] == '_'))
      ++pos;
    if (pos == start) fail("expected identifier", pos);
    return s.substr(start, pos - start);
  }
};

long to_long(const std::string& v, std::size_t pos) {
  try {
    return std::stol(v);
  } catch (...) {
    fail("expected a number, got '" + v + "'", pos);
  }
}

// gt3's accepted option ranges: `samples` is a count of simulated trials
// (an int), and `margin` is added to simulated times, which must not
// overflow.
constexpr long kMaxGt3Samples = 100000;
constexpr long kMaxGt3Margin = 1000000000;

// True when the all-digit string `v` denotes a value of at most `limit`.
bool at_most(const std::string& v, long limit) {
  const std::size_t first = std::min(v.find_first_not_of('0'), v.size());
  const std::string digits = v.substr(first);
  return digits.size() <= std::to_string(limit).size() &&
         (digits.empty() || std::stol(digits) <= limit);
}

bool flag_set(const std::vector<std::pair<std::string, std::string>>& args,
              const std::string& name) {
  for (const auto& [k, v] : args)
    if (k == name && v.empty()) return true;
  return false;
}

const std::string* arg_value(const std::vector<std::pair<std::string, std::string>>& args,
                             const std::string& name) {
  for (const auto& [k, v] : args)
    if (k == name && !v.empty()) return &v;
  return nullptr;
}

}  // namespace

TransformScript TransformScript::parse(const std::string& source) {
  TransformScript out;
  Scanner sc{source};
  while (!sc.eof()) {
    Step step;
    std::size_t at = sc.pos;
    step.name = sc.ident();
    if (sc.consume('(')) {
      while (!sc.consume(')')) {
        std::string key = sc.ident();
        std::string value;
        if (sc.consume('=')) value = sc.ident();
        step.args.emplace_back(std::move(key), std::move(value));
        if (!sc.consume(',')) {
          if (!sc.consume(')')) fail("expected ',' or ')'", sc.pos);
          break;
        }
      }
    }
    static const char* known[] = {"gt1", "gt2", "gt3", "gt4", "gt5", "lt"};
    bool ok = false;
    for (const char* k : known) ok = ok || step.name == k;
    if (!ok) fail("unknown step '" + step.name + "'", at);

    // Argument validation happens at parse time so scripts fail fast.
    for (const auto& [key, value] : step.args) {
      auto is_num = [](const std::string& v) {
        return !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
      };
      if (step.name == "gt2" && key != "all") fail("gt2: unknown option '" + key + "'", at);
      if (step.name == "gt3") {
        if (key != "margin" && key != "samples")
          fail("gt3: unknown option '" + key + "'", at);
        if (!is_num(value)) fail("gt3: " + key + " needs a numeric value", at);
        const long limit = key == "samples" ? kMaxGt3Samples : kMaxGt3Margin;
        if (!at_most(value, limit))
          fail("gt3: " + key + " must be at most " + std::to_string(limit), at);
      }
      if (step.name == "gt5") {
        if (key == "broadcast") {
          if (value != "first" && value != "all" && value != "none")
            fail("gt5: unknown broadcast policy '" + value + "'", at);
        } else if (key == "maxperiod") {
          if (!is_num(value)) fail("gt5: maxperiod needs a numeric value", at);
        } else if (key != "no_mux" && key != "no_sym" && key != "concred") {
          fail("gt5: unknown option '" + key + "'", at);
        }
      }
      if (step.name == "lt" && key != "no_move_up" && key != "no_move_down" &&
          key != "no_presel" && key != "no_acks" && key != "no_sharing")
        fail("lt: unknown option '" + key + "'", at);
      if ((step.name == "gt1" || step.name == "gt4") && !key.empty())
        fail(step.name + " takes no options", at);
    }

    if (step.name == "lt") {
      out.has_lt_ = true;
      out.local_ = LocalTransformOptions{};
      out.local_.lt1_move_up_dones = !flag_set(step.args, "no_move_up");
      out.local_.lt2_move_down_resets = !flag_set(step.args, "no_move_down");
      out.local_.lt3_mux_preselection = !flag_set(step.args, "no_presel");
      out.local_.lt4_remove_acks = !flag_set(step.args, "no_acks");
      out.local_.lt5_signal_sharing = !flag_set(step.args, "no_sharing");
    }
    out.steps_.push_back(std::move(step));
    if (!sc.consume(';') && !sc.eof()) fail("expected ';'", sc.pos);
  }
  return out;
}

bool TransformScript::run_step(Cdfg& g, std::size_t i, const DelayModel& delays,
                               GlobalPipelineResult& res) const {
  const Step& step = steps_.at(i);
  if (step.name == "gt1") {
    res.stages.push_back(gt1_loop_parallelism(g));
  } else if (step.name == "gt2") {
    Gt2Options o;
    o.only_inter_controller = !flag_set(step.args, "all");
    res.stages.push_back(gt2_remove_dominated(g, o));
  } else if (step.name == "gt3") {
    Gt3Options o;
    if (const auto* m = arg_value(step.args, "margin")) o.margin = to_long(*m, 0);
    if (const auto* n = arg_value(step.args, "samples"))
      o.samples = static_cast<int>(to_long(*n, 0));
    res.stages.push_back(gt3_relative_timing(g, delays, o));
  } else if (step.name == "gt4") {
    res.stages.push_back(gt4_merge_assignments(g));
  } else if (step.name == "gt5") {
    Gt5Options o;
    o.delays = delays;
    if (const auto* b = arg_value(step.args, "broadcast")) {
      if (*b == "all")
        o.same_source = Gt5Options::SameSource::kAll;
      else if (*b == "none")
        o.same_source = Gt5Options::SameSource::kNone;
      else if (*b == "first")
        o.same_source = Gt5Options::SameSource::kFirstNodeTargets;
      else
        throw std::invalid_argument("script: unknown broadcast policy '" + *b + "'");
    }
    o.multiplex = !flag_set(step.args, "no_mux");
    o.symmetrize = !flag_set(step.args, "no_sym");
    o.concurrency_reduction = flag_set(step.args, "concred");
    if (const auto* m = arg_value(step.args, "maxperiod")) {
      o.concurrency_reduction = true;
      o.max_period_increase = to_long(*m, 0);
    }
    auto gt5 = gt5_channel_elimination(g, o);
    res.stages.push_back(std::move(gt5.stats));
    res.plan = std::move(gt5.plan);
    return true;
  }
  // "lt" carries no global action; its options are read by the caller.
  return false;
}

GlobalPipelineResult TransformScript::run(Cdfg& g, const DelayModel& delays) const {
  GlobalPipelineResult res;
  bool have_plan = false;
  for (std::size_t i = 0; i < steps_.size(); ++i)
    have_plan = run_step(g, i, delays, res) || have_plan;
  if (!have_plan) res.plan = ChannelPlan::derive(g);
  return res;
}

std::string TransformScript::step_string(std::size_t i) const {
  const Step& step = steps_.at(i);
  std::string out = step.name;
  if (!step.args.empty()) {
    out += '(';
    for (std::size_t a = 0; a < step.args.size(); ++a) {
      if (a) out += ", ";
      out += step.args[a].first;
      if (!step.args[a].second.empty()) out += "=" + step.args[a].second;
    }
    out += ')';
  }
  return out;
}

std::string TransformScript::prefix_string(std::size_t n) const {
  std::string out;
  for (std::size_t i = 0; i < n && i < steps_.size(); ++i) {
    if (!out.empty()) out += "; ";
    out += step_string(i);
  }
  return out;
}

std::string TransformScript::to_string() const { return prefix_string(steps_.size()); }

}  // namespace adc
