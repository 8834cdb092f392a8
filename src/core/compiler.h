// Public entry point: compile calculus query text into an executable
// extended-algebra plan and run it against database instances.
//
//   emcalc::Compiler compiler;                       // builtin functions
//   auto q = compiler.Compile(
//       "{y | exists x (R(x) and y = succ(x))}");
//   if (!q.ok()) { ... q.status().message() ... }
//   auto answer = q->Run(db);
//
// One Compiler owns one AstContext; every CompiledQuery and
// ParameterizedQuery it produces remains valid for the compiler's lifetime.
// Both kinds go through one pipeline — parse, stage-1 verification, view
// expansion, TranslateQuery (rectify, safety, ENF, RANF, algebra
// generation, optimization) and lowering — once, at compile time; a
// closed query is the case of an empty parameter context. A run only
// executes the lowered plan.
//
// Thread safety:
//   - Compiler (Compile, CompileQuery, CompileParameterized, DefineView,
//     Analyze) is single-threaded: it grows the shared AstContext arena.
//     ParameterizedQuery::PlanFor plans into that arena too, so it is
//     single-threaded like the Compiler and must not overlap a compile.
//   - CompiledQuery::Run, RunWithProfile and ExplainAnalyze, and
//     ParameterizedQuery::Run, RunWithProfile and ExplainAnalyze, are safe
//     to call from many threads at once, on one query (with any mix of
//     arguments) and one shared `const Database&` (whose relations sort
//     lazily, under a lock, on first read), with the query log and history
//     store installed (tests/concurrency_test.cc, run under
//     ThreadSanitizer in CI). They allocate nothing in the compiler's
//     arena. Neither the database nor the compiler may be mutated while
//     they run.
#ifndef EMCALC_CORE_COMPILER_H_
#define EMCALC_CORE_COMPILER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/algebra/eval.h"
#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/calculus/views.h"
#include "src/diag/diagnostic.h"
#include "src/exec/physical.h"
#include "src/obs/compile_profile.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"
#include "src/translate/pipeline.h"

namespace emcalc {

class Compiler;

// A query's physical plan, lowered once at compile time and shared by every
// run, or the lowering error each run reports.
using LoweredPlan = StatusOr<std::shared_ptr<const PhysicalPlan>>;

// Result of Compiler::Analyze — every front-end diagnostic for a query
// (parse errors, lint findings, well-formedness errors, the safety blame
// trace) without generating a plan or executing anything. Lint warnings
// are reported even for accepted queries.
struct QueryAnalysis {
  std::string text;     // the analyzed source, for rendering
  bool parsed = false;  // text parsed into a query
  bool safe = false;    // parsed, well-formed, and em-allowed
  // Structured safety outcome (meaningful once `parsed`); on rejection its
  // blame fields identify the failing condition and variables.
  SafetyResult safety;
  // Ordered report: lint errors, then parse/well-formedness/safety
  // diagnostics, then lint warnings.
  std::vector<diag::Diagnostic> diagnostics;

  bool HasErrors() const { return diag::CountErrors(diagnostics) > 0; }

  // Human-readable report with caret snippets against `text`.
  std::string Render() const;
  // JSON array (diagnostics schema of docs/diagnostics.md), with spans
  // resolved to line/col.
  std::string ToJson() const;
};

// A safety-checked, translated query ready to execute. It is also the
// compiled form a ParameterizedQuery wraps: then its plan holds parameter
// slots and translation().ranf is RANF for the parameter context.
class CompiledQuery {
 public:
  const Query& query() const { return query_; }
  const Translation& translation() const { return translation_; }
  const AlgExpr* plan() const { return translation_.plan; }

  // Pretty forms for display.
  std::string QueryString() const;
  std::string PlanString() const;
  std::string PlanTreeString() const;

  // Executes the plan against `db` using the owning compiler's functions.
  // The plan is lowered to the physical execution layer (src/exec/) and
  // run there; `stats` receives the flat totals of the execution profile.
  StatusOr<Relation> Run(const Database& db,
                         AlgebraEvalStats* stats = nullptr) const;

  // Executes and additionally fills `profile` with the per-operator
  // statistics tree (rows in/out, hash build/probe counts, wall time).
  StatusOr<Relation> RunWithProfile(const Database& db,
                                    ExecProfile* profile) const;

  // EXPLAIN ANALYZE: executes against `db` and renders the per-operator
  // profile as a multi-line report.
  StatusOr<std::string> ExplainAnalyze(const Database& db) const;

  // The per-phase compile timing tree (parse, view expansion, safety, ENF,
  // RANF, algebra generation, optimization, lowering), mirroring the
  // run-time ExecProfile. Always populated.
  const obs::CompilePhase& compile_profile() const { return profile_; }

  // EXPLAIN COMPILE: renders compile_profile() as an indented per-phase
  // timing report with phase details (FinD counts, form sizes, node
  // counts).
  std::string ExplainCompile() const;

 private:
  friend class Compiler;
  friend class ParameterizedQuery;
  CompiledQuery(Compiler* owner, Query query, Translation translation,
                obs::CompilePhase profile, std::string text,
                LoweredPlan physical)
      : owner_(owner), query_(std::move(query)),
        translation_(std::move(translation)), profile_(std::move(profile)),
        text_(std::move(text)), physical_(std::move(physical)) {}

  Compiler* owner_;  // non-const for ParameterizedQuery::PlanFor
  Query query_;
  Translation translation_;
  obs::CompilePhase profile_;
  std::string text_;  // original query text (compile/run log correlation)
  LoweredPlan physical_;
};

// A query with host-program parameters — the paper's "em-allowed for X"
// (Section 9): the parameter variables are free in the body but bound by
// the embedding program, so the safety analysis treats them as already
// confined to finite sets. Example:
//
//   auto q = compiler.CompileParameterized(
//       "{e | EMP(e, d, s) and with_raise(s) <= cap}", {"d", "cap"});
//   auto answer = q->Run(db, {Value::Int(3), Value::Int(90000)});
//
// CompileParameterized runs the one compile pipeline with the parameters
// as TranslateQuery's context: safety and RANF are relative to them, and
// each parameter then becomes a parameter term $i (like a constant, it
// preserves RANF relative to the empty context), so the one plan generated,
// optimized and lowered has parameter slots where the argument constants
// would be — the placeholder design: values are bound at execution, never
// spliced into the plan. The result wraps that CompiledQuery. Each Run
// binds its arguments into the cached physical plan, so calls allocate
// nothing in the compiler's arena and may run concurrently (see the
// thread-safety notes at the top of this file).
class ParameterizedQuery {
 public:
  const std::vector<Symbol>& parameters() const { return params_; }
  // head = output variables; the body's free variables are head + params.
  const Query& query() const { return compiled_.query(); }
  // The cached plan, with parameter slots $1..$n for parameters().
  std::string PlanString() const { return compiled_.PlanString(); }

  // Executes with `args` bound to parameters() position-wise.
  StatusOr<Relation> Run(const Database& db, const std::vector<Value>& args,
                         AlgebraEvalStats* stats = nullptr) const;

  // Executes through the physical layer and fills `profile` with the
  // per-operator statistics tree — the parameterized counterpart of
  // CompiledQuery::RunWithProfile.
  StatusOr<Relation> RunWithProfile(const Database& db,
                                    const std::vector<Value>& args,
                                    ExecProfile* profile) const;

  // EXPLAIN ANALYZE for one argument binding: executes against `db` and
  // renders the cached plan with its parameter slots, an `args:` line
  // binding them, and the per-operator profile.
  StatusOr<std::string> ExplainAnalyze(const Database& db,
                                       const std::vector<Value>& args) const;

  // The plan for given argument values, built by substituting them as
  // constants into the RANF form and translating afresh: the substitution
  // path that Run's answers are tested against. Plans into the compiler's
  // arena, so it is single-threaded like the Compiler.
  StatusOr<const AlgExpr*> PlanFor(const std::vector<Value>& args) const;

 private:
  friend class Compiler;
  ParameterizedQuery(CompiledQuery compiled, std::vector<Symbol> params,
                     std::map<Symbol, Symbol> inverses)
      : compiled_(std::move(compiled)), params_(std::move(params)),
        inverses_(std::move(inverses)) {}

  // The compile pipeline's output: source text (its hash keys the compile
  // record, every run record, the history store and flight-recorder
  // events alike), the plan with parameter slots, its lowered form and the
  // RANF for the context `params_` (PlanFor).
  CompiledQuery compiled_;
  std::vector<Symbol> params_;
  std::map<Symbol, Symbol> inverses_;  // declared function inverses
};

// Parses, safety-checks, and translates queries. Not copyable or movable:
// CompiledQuery objects hold a pointer back to their compiler.
class Compiler {
 public:
  // Uses the builtin scalar functions (see storage/interpretation.h).
  Compiler();
  explicit Compiler(FunctionRegistry functions);

  Compiler(const Compiler&) = delete;
  Compiler& operator=(const Compiler&) = delete;

  // Parses and translates `text` ("{x | ...}" or a bare formula).
  StatusOr<CompiledQuery> Compile(std::string_view text,
                                  const TranslateOptions& options = {});

  // Static analysis only: parses `text` and reports every front-end
  // diagnostic — lint findings, well-formedness errors, and on safety
  // rejection the full blame trace (failing subformula with source span,
  // unbounded variables, attempted FinD derivation). Never translates,
  // never executes. The repl's .lint/.why commands are thin wrappers.
  QueryAnalysis Analyze(std::string_view text,
                        const TranslateOptions& options = {});

  // Translates an already-built query (for programmatic construction).
  StatusOr<CompiledQuery> CompileQuery(const Query& q,
                                       const TranslateOptions& options = {});

  // Compiles a parameterized query through the same pipeline as Compile:
  // the body's free variables must be exactly the head variables plus
  // `params` (a bare formula's head drops them), and the body must be
  // em-allowed *for* the parameter set.
  StatusOr<ParameterizedQuery> CompileParameterized(
      std::string_view text, const std::vector<std::string>& params,
      const TranslateOptions& options = {});

  // Defines a view: a named query usable as a relation atom in later
  // queries (and view definitions). Views are expanded inline before the
  // safety analysis, so a query over views is safe iff its expansion is.
  // The view itself must be well-formed but need not be em-allowed on its
  // own (e.g. {x, y | f(x) = y} is a fine view when every use bounds x).
  Status DefineView(std::string_view name, std::string_view query_text);

  AstContext& ctx() { return *ctx_; }
  const AstContext& ctx() const { return *ctx_; }
  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }

 private:
  // Front end of Compile/CompileParameterized: parses `text` (logging a
  // parse failure), drops `params` from the head and hands the query to
  // CompileImpl.
  StatusOr<CompiledQuery> CompileText(std::string_view text,
                                      const std::vector<Symbol>& params,
                                      const TranslateOptions& options);

  // Shared tail of every compile: stage-1 verification (spans required
  // when `parsed`), lint and safety blame for the log, view expansion,
  // TranslateQuery relative to `params`, lowering with `params.size()`
  // slots, metrics, and query-log emission. `profile` carries phases
  // already timed by the caller (parse); `start_ns` is when the whole
  // compilation began; `text` is the query's source text.
  StatusOr<CompiledQuery> CompileImpl(const Query& q,
                                      const std::vector<Symbol>& params,
                                      const TranslateOptions& options,
                                      obs::CompilePhase profile,
                                      uint64_t start_ns, std::string text,
                                      bool parsed);

  std::unique_ptr<AstContext> ctx_;
  FunctionRegistry functions_;
  ViewMap views_;
};

}  // namespace emcalc

#endif  // EMCALC_CORE_COMPILER_H_
