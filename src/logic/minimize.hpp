#pragma once
// Top-level two-level synthesis of an XBM controller (the paper's gate
// level, Figure 13): concretize phases, assign state codes, build one
// hazard-free function specification per output and per feedback bit,
// minimize each cover, then substitute single-user products with dhf
// implicants another function already pays for (Minimalist-style sharing).
//
// Product/literal counting supports the paper's two tool modes:
//  * single-output (3D-like): every function pays for its own products;
//  * shared-product (Minimalist-like): identical AND-terms used by several
//    functions are counted once.

#include <string>
#include <vector>

#include "logic/encoding.hpp"
#include "logic/flow_table.hpp"
#include "logic/hazard_free.hpp"
#include "obs/trace_context.hpp"
#include "xbm/xbm.hpp"

namespace adc {

class ThreadPool;

struct SynthesisOptions {
  CoverOptions cover;
  // Fan the independent per-function minimizations out on this pool (not
  // owned; null = serial).  Functions land at fixed indices and issues are
  // merged in function order, so results are identical either way.
  ThreadPool* pool = nullptr;
  // Per-function spans ("fn:<name>") land in this trace when active.
  obs::TraceContext trace;
};

struct FunctionLogic {
  std::string name;
  bool is_state_bit = false;
  std::vector<Cube> products;
};

struct LogicSynthesisResult {
  ConcreteMachine machine;
  Encoding encoding;
  std::vector<FunctionLogic> functions;
  std::vector<std::string> issues;

  bool feasible() const { return issues.empty(); }
  std::size_t product_count(bool share_products) const;
  std::size_t literal_count(bool share_products) const;
};

// Builds one function's hazard-free specification; exposed for tests and
// benches.  It embeds the controller's transition cubes for this call
// alone: synthesize_logic embeds them once and builds every function's
// specification from that one embedding, through the same code.
FunctionSpec build_function_spec(const ConcreteMachine& cm, const Encoding& enc,
                                 bool state_bit, std::size_t index, std::string name);

LogicSynthesisResult synthesize_logic(const ExtractedController& c,
                                      const SynthesisOptions& opts = {});
// Without bindings (conditionals treated as unknown everywhere).
LogicSynthesisResult synthesize_logic(const Xbm& m, const SynthesisOptions& opts = {});

}  // namespace adc
