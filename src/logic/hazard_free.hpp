#pragma once
// Hazard-free two-level minimization (the Nowick/Dill formulation used by
// Minimalist and 3D, reimplemented as the paper's gate-level backend).
//
// A single-output function is specified by a set of *input transitions*
// (multiple-input changes) over the (primary input, state bit) space:
//
//   static 1 -> 1 : the whole transition cube is a *required cube* — it
//                   must lie inside ONE product, or the AND-OR network can
//                   glitch as cover responsibility shifts between products;
//   static 0 -> 0 : no product may intersect the transition cube;
//   rising  0 -> 1 : any product intersecting the transition cube must
//                   contain its end point (monotonic turn-on); the end
//                   point is required;
//   falling 1 -> 0 : any product intersecting must contain the start point
//                   (monotonic turn-off); the start point is required.
//
// A product satisfying all intersection rules and avoiding the OFF regions
// is a *dhf implicant*.  Minimization grows a maximal dhf implicant from
// each required cube, greedily, in four variable orders, and then picks
// from that pool greedily (most uncovered required cubes first, fewest
// literals on a tie) until every required cube lies inside one pick.  The
// cover is hazard-free, but not necessarily minimum.

#include <memory>
#include <string>
#include <vector>

#include "logic/cube.hpp"
#include "runtime/cancel.hpp"

namespace adc {

enum class HfType { kRise, kFall };

struct HfDynamic {
  Cube t;  // transition cube
  Cube a;  // start point
  Cube b;  // end point
  HfType type;
};

struct FunctionSpec {
  std::string name;
  std::size_t vars = 0;
  std::vector<Cube> off;        // regions the cover must avoid
  std::vector<Cube> required;   // each must be inside a single product
  std::vector<HfDynamic> dynamic;
};

// True if `p` may appear in a hazard-free cover of the function.
bool implicant_valid(const FunctionSpec& f, const Cube& p);

// A FunctionSpec compiled once for the minimizer's inner loops: its maximal
// OFF cubes (the only ones a "hits OFF?" test needs) and its dynamic
// transitions, stored by variable, and the anchors as flat words.  Shared
// by the minimizer's seeding and expansion and by product sharing.  Refers
// to the spec, which must outlive it.
class CompiledSpec {
 public:
  explicit CompiledSpec(const FunctionSpec& f);
  ~CompiledSpec();
  CompiledSpec(CompiledSpec&&) noexcept;
  CompiledSpec& operator=(CompiledSpec&&) noexcept;

  const FunctionSpec& spec() const { return *spec_; }
  // implicant_valid(spec(), p), answered from the compiled tables.
  bool valid(const Cube& p) const;

  struct Tables;  // defined by the minimizer
  const Tables& tables() const { return *tables_; }

 private:
  const FunctionSpec* spec_;
  std::unique_ptr<Tables> tables_;
};

struct CoverResult {
  std::vector<Cube> products;
  bool feasible = true;
  std::vector<std::string> issues;  // unrealizable required cubes etc.
};

class LogicMemo;

struct CoverOptions {
  // Cooperative cancellation: checked in the candidate-growth loop and
  // the greedy covering loop; a tripped token unwinds with
  // CancelledError.  Not owned; null = never cancelled.
  const CancelToken* cancel = nullptr;
  // Optional cover memo (logic/memo.hpp): identical spec content replays
  // the stored cover instead of recomputing.  Not owned; null = off.
  LogicMemo* memo = nullptr;
};

CoverResult minimize_hazard_free(const FunctionSpec& f, const CoverOptions& opts = {});
// The same, on a spec the caller has compiled.
CoverResult minimize_hazard_free(const CompiledSpec& c, const CoverOptions& opts = {});

// Maximal dhf implicants grown from the required cubes (the candidate pool
// of the covering step; exposed for tests).
std::vector<Cube> candidate_implicants(const FunctionSpec& f,
                                       const CancelToken* cancel = nullptr);

}  // namespace adc
