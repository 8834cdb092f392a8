// The end-to-end translation pipeline (Section 7 of the paper):
//
//   (1) eliminate universal quantifiers,
//   (2) transform to ENF (with T10),
//   (3) transform to RANF (FinD-driven ordering; T13–T16),
//   (4) generate an extended-algebra plan,
//   plus a final plan-simplification pass.
//
// Safety is checked first: only em-allowed queries are translated, and the
// pipeline is total on them — an em-allowed query that fails to translate
// is a bug (kInternal), which the test suite treats as such.
//
// The pipeline works relative to a context X of host-program parameters
// (the paper's "em-allowed for X", Section 9). A closed query is the case
// X = {}; Compiler::CompileParameterized passes its parameters.
#ifndef EMCALC_TRANSLATE_PIPELINE_H_
#define EMCALC_TRANSLATE_PIPELINE_H_

#include <map>
#include <vector>

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/obs/compile_profile.h"
#include "src/safety/em_allowed.h"
#include "src/translate/enf.h"

namespace emcalc {

// Pipeline knobs (the ablation experiments toggle these).
struct TranslateOptions {
  // Transformation T10 (ENF): disable to reproduce GT91's transformation
  // set; translation then fails on queries like q4 (experiment E6).
  bool enable_t10 = true;
  // FinD engine configuration (reduced covers on/off: experiment E3).
  BoundOptions bound;
  // Invertible functions: maps a function symbol to its inverse's symbol.
  // Extends bd/em-allowed/translation per the [BM92a] comparison (see
  // finds/bound.h); empty by default — the paper's own setting.
  std::map<Symbol, Symbol> inverse_fns;
  // Apply literal T13/T14 disjunction distribution before RANF instead of
  // relying on context-threading in the generator (experiment E10 measures
  // the plan-size cost of the syntactic strategy).
  bool distribute_disjunctions = false;
  // Run the plan simplifier after generation.
  bool optimize = true;
  // Verify em-allowedness before translating (when false, unsafe queries
  // produce whatever failure the later passes hit; used by tests).
  bool check_safety = true;
};

// The FinD options the pipeline runs with: `options.bound` with every
// declared inverse's function folded into the invertible set.
BoundOptions EffectiveBound(const TranslateOptions& options);

// All artifacts of one translation, for inspection and experiments.
struct Translation {
  SafetyResult safety;
  const Formula* enf = nullptr;   // after steps (1)–(2)
  // After step (3): RANF relative to the parameter context, with the
  // parameters still free (ParameterizedQuery::PlanFor grounds it).
  const Formula* ranf = nullptr;
  const AlgExpr* raw_plan = nullptr;  // after step (4)
  const AlgExpr* plan = nullptr;      // after simplification
  // Per-phase wall times of this translation (the "translate" subtree of
  // the compile profile; see src/obs/compile_profile.h). Always filled.
  obs::CompilePhase profile;
  // Safety-check statistics: bd cache misses and the size of bd(body)'s
  // cover (both 0 when check_safety is off).
  size_t bd_computations = 0;
  size_t find_count = 0;
};

// Translates a query that is em-allowed for the context `params` into an
// equivalent extended-algebra plan. The body's free variables must be
// exactly the head plus `params` (CheckWellFormed). The i-th parameter
// becomes the parameter term $i+1 before algebra generation, so the plan
// reads it from parameter slot i. Errors: kNotSafe (em-allowed check or
// RANF ordering failed), kInvalidArgument (ill-formed query), kInternal
// (pipeline bug).
StatusOr<Translation> TranslateQuery(AstContext& ctx, const Query& q,
                                     const TranslateOptions& options = {},
                                     const std::vector<Symbol>& params = {});

}  // namespace emcalc

#endif  // EMCALC_TRANSLATE_PIPELINE_H_
