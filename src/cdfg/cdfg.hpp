#pragma once
// Control/Data-Flow Graph IR — the input representation of the synthesis
// method (paper §2.1).
//
// A Cdfg holds:
//  * functional units (FUs) — the bound resources (ALUs, multipliers, ...),
//  * nodes — START/END, LOOP/ENDLOOP, IF/ENDIF and RTL operation /
//    assignment nodes, each bound to an FU (control-structure nodes are
//    bound too: in the paper LOOP and ENDLOOP are bound to ALU2),
//  * constraint arcs — control flow, per-FU scheduling, data dependency and
//    register allocation.  One arc can carry several semantic roles at once
//    (the paper's example: (M1:=U*X1, U:=U-M1) is a register-allocation arc
//    w.r.t. U *and* would be a data-dependency arc w.r.t. M1), so roles are
//    a bit-set on a single arc between a node pair.
//  * blocks — the block structure (LOOP..ENDLOOP, IF..ENDIF ranges).
//
// Arcs may be marked `backward`: a backward arc is ignored during the first
// execution of a loop body (it is a pre-enabled constraint for the first
// iteration) and constrains iteration k+1 against iteration k afterwards.
// Forward arcs constrain within one iteration (offset 0), backward arcs
// across consecutive iterations (offset 1).
//
// Nodes and arcs are removed by tombstoning so ids stay stable; iteration
// helpers skip dead objects.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/ids.hpp"
#include "cdfg/rtl.hpp"

namespace adc {

enum class NodeKind {
  kStart,
  kEnd,
  kLoop,
  kEndLoop,
  kIf,
  kEndIf,
  kOperation,  // RTL statement using the functional unit
  kAssign,     // pure register move, does not use the functional unit
};

const char* to_string(NodeKind kind);

// Semantic roles of a constraint arc (bit-set; an arc can have several).
enum class ArcRole : std::uint8_t {
  kControl = 1 << 0,     // from/to START, END, IF, ENDIF, LOOP, ENDLOOP
  kScheduling = 1 << 1,  // orders the operations bound to one FU
  kDataDep = 1 << 2,     // producer -> consumer of a register value
  kRegAlloc = 1 << 3,    // reader-of-old-value -> overwriting write
};

constexpr ArcRole operator|(ArcRole a, ArcRole b) {
  return static_cast<ArcRole>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
constexpr bool has_role(ArcRole set, ArcRole role) {
  return (static_cast<std::uint8_t>(set) & static_cast<std::uint8_t>(role)) != 0;
}

std::string to_string(ArcRole roles);

// A bound resource.  The class string ("alu", "mul", ...) selects the delay
// model entry and which RtlOps the unit may execute.
struct FunctionalUnit {
  FuId id;
  std::string name;   // e.g. "ALU1"
  std::string cls;    // e.g. "alu", "mul"
};

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::kOperation;
  FuId fu;                          // invalid for START/END
  std::vector<RtlStatement> stmts;  // >1 after GT4 merging; empty for control nodes
  BlockId block;                    // enclosing block, invalid at top level
  std::string cond_reg;             // LOOP/IF only: the examined condition register
  bool alive = true;

  bool is_control() const {
    return kind != NodeKind::kOperation && kind != NodeKind::kAssign;
  }
  // The statement label used in diagnostics, e.g. "A := Y + M1" or "LOOP".
  std::string label() const;
};

struct Arc {
  ArcId id;
  NodeId src;
  NodeId dst;
  ArcRole roles{};
  bool backward = false;           // iteration-crossing (offset 1) constraint
  std::vector<std::string> vars;   // registers that motivated the arc (debugging)
  std::string tag;                 // optional label matching the paper's figures
  bool alive = true;

  int offset() const { return backward ? 1 : 0; }
};

// A structured block: the node range between a LOOP/ENDLOOP or IF/ENDIF pair.
struct Block {
  BlockId id;
  NodeKind kind = NodeKind::kLoop;  // kLoop or kIf
  NodeId root;                      // the LOOP / IF node
  NodeId end;                       // the ENDLOOP / ENDIF node
  BlockId parent;                   // enclosing block, invalid at top level
};

class Cdfg {
 public:
  explicit Cdfg(std::string name = "cdfg") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- construction -------------------------------------------------------
  FuId add_fu(std::string name, std::string cls);
  NodeId add_node(NodeKind kind, FuId fu, std::vector<RtlStatement> stmts = {},
                  BlockId block = BlockId::invalid());
  BlockId add_block(NodeKind kind, NodeId root, NodeId end,
                    BlockId parent = BlockId::invalid());
  // Adds (or extends) the arc src->dst.  If an arc with the same src, dst and
  // backward flag already exists, the roles/vars are merged into it.
  ArcId add_arc(NodeId src, NodeId dst, ArcRole roles, bool backward = false,
                std::string var = {});

  void remove_arc(ArcId id);
  void remove_node(NodeId id);  // also removes incident arcs

  // Appends node `victim`'s statements to `survivor` (GT4), reroutes all of
  // victim's arcs to survivor (dropping self-arcs), removes victim, and
  // splices the FU schedule.
  void merge_nodes(NodeId survivor, NodeId victim);

  // Sets the execution order of the nodes bound to `fu` (scheduling).
  void set_fu_order(FuId fu, std::vector<NodeId> order);

  // --- access -------------------------------------------------------------
  const FunctionalUnit& fu(FuId id) const { return fus_.at(id.index()); }
  const Node& node(NodeId id) const { return nodes_.at(id.index()); }
  Node& node(NodeId id) { return nodes_.at(id.index()); }
  const Arc& arc(ArcId id) const { return arcs_.at(id.index()); }
  Arc& arc(ArcId id) { return arcs_.at(id.index()); }
  const Block& block(BlockId id) const { return blocks_.at(id.index()); }
  Block& block(BlockId id) { return blocks_.at(id.index()); }

  std::size_t fu_count() const { return fus_.size(); }
  std::size_t node_capacity() const { return nodes_.size(); }  // incl. dead

  // Live objects.
  std::vector<NodeId> node_ids() const;
  std::vector<ArcId> arc_ids() const;
  std::vector<FuId> fu_ids() const;
  std::vector<BlockId> block_ids() const;
  std::size_t live_node_count() const;
  std::size_t live_arc_count() const;

  // Adjacency (live arcs only).
  std::vector<ArcId> in_arcs(NodeId n) const;
  std::vector<ArcId> out_arcs(NodeId n) const;
  std::vector<NodeId> preds(NodeId n) const;
  std::vector<NodeId> succs(NodeId n) const;

  // The existing arc src->dst with the given backward flag, if any.
  std::optional<ArcId> find_arc(NodeId src, NodeId dst, bool backward = false) const;

  // The scheduled order of live nodes bound to `fu`.
  const std::vector<NodeId>& fu_order(FuId fu) const;

  // Lookup helpers.
  std::optional<FuId> find_fu(const std::string& name) const;
  std::optional<NodeId> find_node_by_label(const std::string& label) const;
  std::optional<NodeId> find_unique(NodeKind kind) const;  // e.g. the START node

  // Registers appearing anywhere in the graph (reads plus writes).
  std::vector<std::string> registers() const;

  Cdfg clone() const { return *this; }

 private:
  std::string name_;
  std::vector<FunctionalUnit> fus_;
  std::vector<Node> nodes_;
  std::vector<Arc> arcs_;
  std::vector<Block> blocks_;
  std::vector<std::vector<NodeId>> fu_orders_;
  std::vector<std::vector<ArcId>> in_;   // per node, may contain dead arcs
  std::vector<std::vector<ArcId>> out_;
};

}  // namespace adc
