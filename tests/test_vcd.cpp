// VCD tests: the writer must produce parseable IEEE-1364 dumps, and the
// event simulator's waveform capture must show every fired channel
// completing its handshake (transition signalling: the wire toggles and the
// run still converges) plus controller state labels for GTKWave.

#include "trace/vcd.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "sim/event_sim.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

// Minimal VCD reader for validation: header declarations + value changes.
struct ParsedVcd {
  struct Var {
    std::string scope, name, type;
  };
  std::map<std::string, Var> vars;  // code -> declaration
  struct Change {
    std::int64_t time;
    std::string code;
    std::string value;  // "0"/"1" or the string token
  };
  std::vector<Change> changes;
  bool saw_enddefinitions = false;
  bool saw_dumpvars = false;
};

ParsedVcd parse_vcd(const std::string& text) {
  ParsedVcd out;
  std::istringstream is(text);
  std::string line, scope;
  bool in_defs = true, in_dump = false;
  std::int64_t now = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (in_defs) {
      std::istringstream ls(line);
      std::string tok;
      ls >> tok;
      if (tok == "$scope") {
        std::string kind;
        ls >> kind >> scope;
      } else if (tok == "$upscope") {
        scope.clear();
      } else if (tok == "$var") {
        std::string type, width, code, name;
        ls >> type >> width >> code >> name;
        EXPECT_FALSE(out.vars.count(code)) << "duplicate code " << code;
        out.vars[code] = {scope, name, type};
      } else if (tok == "$enddefinitions") {
        out.saw_enddefinitions = true;
        in_defs = false;
      }
      continue;
    }
    if (line == "$dumpvars") {
      out.saw_dumpvars = true;
      in_dump = true;
      continue;
    }
    if (line == "$end") {
      in_dump = false;
      continue;
    }
    if (line[0] == '#') {
      now = std::stoll(line.substr(1));
      continue;
    }
    ParsedVcd::Change c;
    c.time = in_dump ? 0 : now;
    if (line[0] == 's') {
      auto sp = line.rfind(' ');
      c.value = line.substr(1, sp - 1);
      c.code = line.substr(sp + 1);
    } else {
      c.value = line.substr(0, 1);
      c.code = line.substr(1);
    }
    if (!in_dump) out.changes.push_back(c);
    EXPECT_TRUE(out.vars.count(c.code)) << "change for undeclared code " << c.code;
  }
  return out;
}

// --- writer unit ----------------------------------------------------------

TEST(VcdWriter, HeaderDeclarationsAndChanges) {
  VcdWriter w("1ns");
  auto req = w.add_wire("channels", "go", false);
  auto st = w.add_string("ctrl", "state", "s0");
  w.change(req, 5, true);
  w.change(req, 5, true);  // redundant: dropped
  w.change_string(st, 7, "s1");
  w.change(req, 9, false);

  std::ostringstream os;
  w.write(os);
  ParsedVcd v = parse_vcd(os.str());
  EXPECT_TRUE(v.saw_enddefinitions);
  EXPECT_TRUE(v.saw_dumpvars);
  ASSERT_EQ(v.vars.size(), 2u);
  ASSERT_EQ(v.changes.size(), 3u);
  EXPECT_EQ(v.changes[0].time, 5);
  EXPECT_EQ(v.changes[0].value, "1");
  EXPECT_EQ(v.changes[1].value, "s1");
  EXPECT_EQ(v.vars.at(v.changes[1].code).type, "string");
  EXPECT_EQ(v.changes[2].time, 9);
}

TEST(VcdWriter, InitialValueChangesAreSuppressed) {
  VcdWriter w;
  auto a = w.add_wire("s", "a", true);
  w.change(a, 3, true);  // same as initial: no change section at all
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(parse_vcd(os.str()).changes.size(), 0u);
}

TEST(VcdWriter, CodesStayUniquePast94Vars) {
  VcdWriter w;
  for (int i = 0; i < 200; ++i)
    w.add_wire("s", "w" + std::to_string(i), false);
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(parse_vcd(os.str()).vars.size(), 200u);
}

// --- event-simulator capture ----------------------------------------------

TEST(VcdSim, DiffeqWaveformShowsEveryChannelHandshake) {
  Cdfg g = diffeq();
  auto gres = TransformScript::parse(kPaperRecipe).run(g);
  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(g, gres.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 8}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  VcdWriter vcd;
  EventSimOptions opts;
  opts.randomize_delays = false;
  opts.vcd = &vcd;
  auto r = run_event_sim(g, gres.plan, instances, init, opts);
  ASSERT_TRUE(r.completed) << r.error;

  std::ostringstream os;
  vcd.write(os);
  ParsedVcd v = parse_vcd(os.str());

  // One declared wire per channel in the plan.
  std::set<std::string> channel_codes;
  for (const auto& [code, var] : v.vars)
    if (var.scope == "channels") channel_codes.insert(code);
  EXPECT_EQ(channel_codes.size(), gres.plan.channels().size());

  // Times never move backwards, and every fired channel completed at least
  // one full handshake cycle: with transition signalling a request/
  // acknowledge exchange is one toggle on each side, so a completed run
  // shows >= 1 change on every channel wire that participated — and the
  // DIFFEQ loop exercises every channel the plan kept.
  std::int64_t last = 0;
  std::map<std::string, int> toggles;
  for (const auto& c : v.changes) {
    EXPECT_GE(c.time, last);
    last = c.time;
    if (channel_codes.count(c.code)) ++toggles[c.code];
  }
  for (const auto& code : channel_codes)
    EXPECT_GE(toggles[code], 1) << "channel wire " << v.vars.at(code).name
                                << " never toggled";

  // Controller state labels are captured for GTKWave.
  bool saw_state_change = false;
  for (const auto& c : v.changes)
    if (v.vars.at(c.code).type == "string" && v.vars.at(c.code).name == "state")
      saw_state_change = true;
  EXPECT_TRUE(saw_state_change);

  // Waveforms observe, never perturb: same sim without capture agrees.
  auto bare = run_event_sim(g, gres.plan, instances, init,
                            [] {
                              EventSimOptions o;
                              o.randomize_delays = false;
                              return o;
                            }());
  EXPECT_EQ(bare.finish_time, r.finish_time);
  EXPECT_EQ(bare.registers, r.registers);
}

TEST(VcdSim, DeadlockedRunStillWritesTheStall) {
  // An artificial stall: drop one controller instance so its channels never
  // answer — the VCD must still be writable and show the requests that got
  // stuck high with no response.
  Cdfg g = diffeq();
  auto gres = TransformScript::parse(kPaperRecipe).run(g);
  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(g, gres.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }
  ASSERT_GT(instances.size(), 1u);
  instances.pop_back();

  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 8}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  VcdWriter vcd;
  EventSimOptions opts;
  opts.randomize_delays = false;
  opts.vcd = &vcd;
  auto r = run_event_sim(g, gres.plan, instances, init, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlocked) << r.error;

  std::ostringstream os;
  vcd.write(os);
  ParsedVcd v = parse_vcd(os.str());
  EXPECT_TRUE(v.saw_enddefinitions);
  EXPECT_FALSE(v.changes.empty()) << "the stall left no activity at all";
}

}  // namespace
}  // namespace adc
