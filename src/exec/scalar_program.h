// Compiled scalar programs: the batch execution form of ScalarExpr trees.
//
// At lowering time every scalar expression of a plan — ProjectMap output
// columns, FilterSelect conditions, HashJoin probe and build keys, join
// residual conditions — is compiled once into a flat register program;
// it is the engine's only scalar evaluator. Registers are column slices
// (one Value per active lane of the current batch); instructions gather
// an input column, splat a constant, splat one of the execution's
// parameter values, or apply a bound ScalarFunction to argument registers.
// Compilation performs
//   - constant folding: an application whose arguments are all constants
//     runs once at compile time (registry functions are pure and total);
//     a parameter is not a constant here, so an application over one runs
//     per batch with the value bound at execution,
//   - common-subexpression elimination: structurally equal subtrees within
//     a stage share one register, so an expression repeated across output
//     columns is computed once per batch,
//   - function binding: the ScalarFunction* is resolved at compile time,
//     so the batch loop never touches the registry or the symbol table.
//
// A filter program is staged: each condition gets its own instruction run
// followed by a comparison that refines the batch's Selection, and later
// stages evaluate only the surviving lanes. Per-lane work therefore never
// exceeds a short-circuiting tuple-at-a-time evaluation.
// Comparisons on all-inline-int columns run a branch-light loop over the
// raw value words (the inline encoding is order-preserving); mixed columns
// first gather per-lane order keys (int value or StringPool order_prefix)
// so the compare loop stays word-sized, falling back to a full string
// compare only on prefix ties.
//
// All per-batch state lives in a BatchScratch the caller owns — one per
// worker thread — whose buffers are charged to the active MemoryScope, so
// governor limits and per-operator attribution stay accurate in batch
// mode. Programs themselves are immutable after compilation and safe to
// run from any number of threads concurrently.
#ifndef EMCALC_EXEC_SCALAR_PROGRAM_H_
#define EMCALC_EXEC_SCALAR_PROGRAM_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/algebra/ast.h"
#include "src/base/symbol.h"
#include "src/base/value.h"
#include "src/exec/selection.h"
#include "src/obs/resource.h"
#include "src/storage/interpretation.h"

namespace emcalc {

class ScalarProgram;

// Per-worker batch buffers: register columns, selection-index storage,
// order-key gather arrays, and a row-major staging area for results. All
// capacity is charged to the calling thread's active obs::MemoryScope (the
// owning operator) and released when the scratch dies.
class BatchScratch {
 public:
  BatchScratch() = default;

  BatchScratch(const BatchScratch&) = delete;
  BatchScratch& operator=(const BatchScratch&) = delete;

  // Sizes every buffer for `prog` at `batch_size` lanes plus a row staging
  // area of `row_width` values per lane, and (re)charges the capacity.
  // Idempotent for equal arguments; callable with different programs (the
  // buffers only grow) at one batch_size — register strides follow the
  // largest batch_size seen, sized only for the program passed with it.
  void Prepare(const ScalarProgram& prog, size_t batch_size,
               size_t row_width);

  // The row-major staging area (batch_size * row_width values).
  Value* row_staging() { return rows_.data(); }

 private:
  friend class ScalarProgram;

  std::vector<Value> regs_;     // num_regs columns of batch_size lanes
  std::vector<Value> rows_;     // row-major result staging
  std::vector<uint32_t> sel_;   // refined selection indexes
  std::vector<uint64_t> keys_;  // order-key gather, lhs then rhs halves
  std::vector<uint8_t> cls_;    // per-lane value class (0 = int, 1 = str)
  size_t batch_size_ = 0;
  obs::MemoryCharge charge_;
};

class ScalarProgram {
 public:
  // Compiles a projection's output expressions. Every kApply symbol must
  // already be bound in `fns` (the Lowerer resolves before compiling).
  // Column references are rebased by `col_base`: a hash join's build keys
  // are written over the concatenated join schema but run over the build
  // input alone, so they compile with col_base = the join's split.
  static ScalarProgram CompileProject(
      std::span<const ScalarExpr* const> exprs, const AstContext& ctx,
      const std::unordered_map<Symbol, const ScalarFunction*>& fns,
      int col_base = 0);

  // Compiles a selection's conditions into one stage per condition.
  static ScalarProgram CompileFilter(
      std::span<const AlgCondition> conds, const AstContext& ctx,
      const std::unordered_map<Symbol, const ScalarFunction*>& fns);

  ScalarProgram() = default;
  ScalarProgram(ScalarProgram&&) = default;
  ScalarProgram& operator=(ScalarProgram&&) = default;
  ScalarProgram(const ScalarProgram&) = delete;
  ScalarProgram& operator=(const ScalarProgram&) = delete;

  int num_regs() const { return num_regs_; }
  size_t num_outputs() const { return outputs_.size(); }
  // Comparison stages: one per compiled condition (0 for a projection).
  size_t num_cmp_stages() const;

  // One past the largest parameter index the program reads (0 when it
  // reads none); an execution must bind at least this many arguments
  // (VerifyPhysical rule phys.param).
  uint32_t params_read() const { return params_read_; }

  // Filter form: runs the staged conditions over the `sel` rows of the
  // arity-strided `input` buffer. The returned Selection (backed by
  // scratch) holds the surviving absolute row indexes, ascending.
  // `params` are the execution's argument values, read by parameter
  // slots. `fn_calls` accumulates one count per lane per function
  // application, matching the legacy interpreter's accounting.
  Selection RunFilter(const Value* input, int arity, Selection sel,
                      BatchScratch& scratch, std::span<const Value> params,
                      uint64_t* fn_calls) const;

  // Projection form: evaluates every output column over the `sel` rows of
  // `input` and writes the results row-major to `dst` (sel.size() rows of
  // num_outputs() values) — the scratch staging area for a ProjectMap, the
  // key arrays for a HashJoin.
  void RunProject(const Value* input, int arity, Selection sel,
                  BatchScratch& scratch, std::span<const Value> params,
                  Value* dst, uint64_t* fn_calls) const;

 private:
  friend class BatchScratch;

  struct Insn {
    enum class Op : uint8_t { kLoadCol, kConst, kCall, kParam };
    Op op = Op::kLoadCol;
    uint16_t dst = 0;
    int col = 0;                          // kLoadCol; kParam: arg index
    Value constant;                       // kConst
    const ScalarFunction* fn = nullptr;   // kCall, resolved at compile
    std::vector<uint16_t> args;           // kCall argument registers
  };

  // One condition: the instructions feeding its two sides, then the
  // comparison that refines the selection. A projection is a single stage
  // with no comparison.
  struct Stage {
    std::vector<Insn> insns;
    bool has_cmp = false;
    AlgCompareOp cmp = AlgCompareOp::kEq;
    uint16_t lhs = 0;
    uint16_t rhs = 0;
  };

  class Builder;

  void RunInsns(const Stage& stage, const Value* input, int arity,
                Selection sel, BatchScratch& scratch,
                std::span<const Value> params, uint64_t* fn_calls) const;

  std::vector<Stage> stages_;
  std::vector<uint16_t> outputs_;  // projection registers, one per column
  int num_regs_ = 0;
  uint32_t params_read_ = 0;
  bool needs_order_keys_ = false;  // any kLt/kLe stage
  bool has_cmp_stage_ = false;     // filter form (needs sel_ storage)
};

}  // namespace emcalc

#endif  // EMCALC_EXEC_SCALAR_PROGRAM_H_
