#include "src/core/compiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "src/base/string_pool.h"
#include "src/base/thread_pool.h"
#include "src/diag/blame.h"
#include "src/diag/lint.h"

#include "src/algebra/optimizer.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/exec/feedback.h"
#include "src/exec/lower.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/history.h"
#include "src/obs/metrics.h"
#include "src/obs/postmortem.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/translate/algebra_gen.h"
#include "src/verify/verify.h"

namespace emcalc {

namespace {

// Compile-side metrics; handles resolved once.
struct CompileMetrics {
  obs::Counter& queries;
  obs::Counter& errors;
  obs::Histogram& wall_ns;

  static CompileMetrics& Get() {
    static CompileMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return new CompileMetrics{reg.GetCounter("compile.queries"),
                                reg.GetCounter("compile.errors"),
                                reg.GetHistogram("compile.wall_ns")};
    }();
    return *m;
  }
};

// Run-side metrics shared by CompiledQuery / ParameterizedQuery.
struct RunMetrics {
  obs::Counter& runs;
  obs::Counter& errors;
  obs::Counter& rows_out;
  obs::Histogram& wall_ns;

  static RunMetrics& Get() {
    static RunMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return new RunMetrics{reg.GetCounter("exec.runs"),
                            reg.GetCounter("exec.errors"),
                            reg.GetCounter("exec.rows_out"),
                            reg.GetHistogram("exec.wall_ns")};
    }();
    return *m;
  }
};

// EMCALC_LINT=1: Compile attaches lint findings (and, on rejection, the
// safety blame trace) to its query-log records.
bool LintToLogEnabled() {
  const char* v = std::getenv("EMCALC_LINT");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

// Effective worker count of an execution: ExecOptions::num_threads with
// the "0 = hardware concurrency" default resolved.
uint64_t EffectiveExecThreads(size_t num_threads) {
  return num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads;
}

// A located diagnostic for a parse failure.
diag::Diagnostic MakeParseDiagnostic(const ParseErrorInfo& e) {
  diag::Diagnostic d("parse.error", diag::Severity::kError, e.message);
  d.WithSpan(diag::SourceSpan{static_cast<uint32_t>(e.offset),
                              static_cast<uint32_t>(e.offset + 1)});
  return d;
}

// Emits one "compile" query-log record (no-op without an installed log).
void LogCompile(const std::string& text, const Status& status,
                const obs::CompilePhase& profile, const Translation* t,
                const Query* query,
                std::vector<diag::Diagnostic> diagnostics = {}) {
  obs::QueryLog* log = obs::GetQueryLog();
  if (log == nullptr) return;
  obs::QueryLogRecord r;
  r.query = text;
  r.query_hash = obs::HashQueryText(text);
  r.ok = status.ok();
  if (!status.ok()) r.error = status.ToString();
  r.wall_ns = profile.wall_ns;
  r.phase_ns = obs::FlattenPhases(profile);
  if (t != nullptr) {
    r.em_allowed = t->safety.em_allowed;
    r.find_count = static_cast<int>(t->find_count);
    if (t->ranf != nullptr) r.ranf_size = FormulaSize(t->ranf);
    if (t->plan != nullptr) r.plan_nodes = t->plan->NodeCount();
  }
  if (query != nullptr) r.level = CountApplications(query->body);
  r.string_pool_size = StringPool::Global().size();
  r.diagnostics = std::move(diagnostics);
  log->Write(r);
}

// RAII around one execution: publishes the query text for crash bundles
// and brackets the run with flight-recorder events so a drained ring shows
// where each query started and ended.
class QueryObsScope {
 public:
  QueryObsScope(const std::string& text, uint64_t hash) : hash_(hash) {
    obs::SetCurrentQuery(text, hash_);
    obs::FlightRecord(obs::FlightEventKind::kQueryStart, "query", hash_);
  }
  ~QueryObsScope() {
    obs::FlightRecord(obs::FlightEventKind::kQueryEnd, "query", hash_);
    obs::ClearCurrentQuery();
  }
  QueryObsScope(const QueryObsScope&) = delete;
  QueryObsScope& operator=(const QueryObsScope&) = delete;

 private:
  uint64_t hash_;
};

// Updates run metrics for one execution attempt and, when any sink would
// consume it, builds the attempt's one run record and hands it to each:
// the query log, the history store (only when a plan ran) and, for a
// failed run, a postmortem bundle. `profile` is null when no plan ran.
void ObserveRun(const std::string& text, uint64_t hash,
                const StatusOr<Relation>& result, uint64_t start_ns,
                uint64_t exec_threads, const ExecProfile* profile) {
  uint64_t wall = obs::NowNs() - start_ns;
  RunMetrics& m = RunMetrics::Get();
  m.runs.Add();
  m.wall_ns.Observe(static_cast<double>(wall));
  if (result.ok()) {
    m.rows_out.Add(result->size());
  } else {
    m.errors.Add();
  }
  obs::QueryLog* log = obs::GetQueryLog();
  obs::HistoryStore* store =
      profile != nullptr ? obs::GetHistoryStore() : nullptr;
  const bool postmortem = !result.ok() && obs::PostmortemEnabled();
  if (log == nullptr && store == nullptr && !postmortem) return;
  const obs::RunRecord run =
      BuildRunRecord(hash, text, result, wall, exec_threads, profile);
  if (store != nullptr) store->RecordRun(run);
  if (postmortem) {
    // Best-effort bundle: failure to write must not mask the run error.
    (void)obs::WritePostmortem(
        run.aborted_limit.empty() ? "run_error" : "governor_abort", run,
        profile != nullptr ? ExecProfileToJson(*profile) : std::string());
  }
  if (log != nullptr) log->Write(run);
}

// Lowers a query's optimized plan once at compile time, for every run, and
// times it as the "lower" phase. `num_params` is the parameter count of a
// parameterized query (0 otherwise). A failed lowering is returned as the
// value: the query stays usable for inspection and each run reports the
// error; the caller fails the compile instead when the error is a
// stage-boundary verification report.
LoweredPlan LowerForRuns(const AstContext& ctx, const AlgExpr* plan,
                         const FunctionRegistry& functions,
                         const std::string& text, size_t num_params,
                         obs::CompilePhase& profile) {
  obs::PhaseTimer timer(&profile, "lower", "compile.lower");
  ExecOptions exec_options;
  exec_options.query_hash = obs::HashQueryText(text);
  auto lowered = Lower(ctx, plan, functions, exec_options, num_params);
  if (!lowered.ok()) {
    timer.SetDetail("failed: " + lowered.status().ToString());
    return lowered.status();
  }
  timer.SetDetail("ops=" + std::to_string(lowered->NumOperators()));
  return std::make_shared<const PhysicalPlan>(std::move(lowered).value());
}

// The one observed-run path behind every Run, RunWithProfile and
// ExplainAnalyze entry point. Executes the plan lowered at compile time
// with `args` bound to its parameter slots (or returns its lowering
// error) under one trace span and QueryObsScope. Profiles whenever a
// consumer exists: the caller's stats or profile, a query log, a history
// store, or a postmortem bundle that would want the partial profile.
// Folds the totals into `stats` and reports the attempt to every sink
// through ObserveRun. `text` is the query's source text, hashed once here.
StatusOr<Relation> RunObserved(const std::string& text,
                               const LoweredPlan& physical,
                               std::span<const Value> args,
                               const Database& db, AlgebraEvalStats* stats,
                               ExecProfile* profile) {
  obs::Span span("exec.run");
  const uint64_t hash = obs::HashQueryText(text);
  QueryObsScope obs_scope(text, hash);
  const uint64_t start_ns = obs::NowNs();
  ExecProfile local;
  if (profile == nullptr &&
      (stats != nullptr || obs::GetQueryLog() != nullptr ||
       obs::GetHistoryStore() != nullptr || obs::PostmortemEnabled())) {
    profile = &local;
  }
  size_t num_threads = 0;
  bool executed = false;  // a plan ran, so `profile` describes it
  auto answer = [&]() -> StatusOr<Relation> {
    if (!physical.ok()) return physical.status();
    num_threads = (*physical)->options().num_threads;
    executed = true;
    auto result = (*physical)->ExecuteToRelation(db, profile, args);
    if (result.ok() && stats != nullptr) {
      ExecTotals totals = SumProfile(*profile);
      stats->tuples_scanned += totals.rows_in;
      stats->tuples_produced += totals.rows_out;
      stats->function_calls += totals.function_calls;
      stats->tuple_copies += totals.tuple_copies;
    }
    return result;
  }();
  ObserveRun(text, hash, answer, start_ns, EffectiveExecThreads(num_threads),
             executed ? profile : nullptr);
  return answer;
}

// EXPLAIN ANALYZE report of one run, shared by both query kinds. `args`
// are a parameterized run's argument values, shown against the plan's
// parameter slots; a compiled query has none and gets no args line.
std::string RenderExplainAnalyze(const std::string& plan,
                                 std::span<const Value> args,
                                 const Relation& answer,
                                 const ExecProfile& profile) {
  std::string out = "plan: " + plan + "\n";
  if (!args.empty()) {
    out += "args:";
    for (size_t i = 0; i < args.size(); ++i) {
      out += (i == 0 ? " $" : ", $") + std::to_string(i + 1) + "=" +
             args[i].ToString();
    }
    out += "\n";
  }
  out += "answer rows: " + std::to_string(answer.size()) + "\n";
  out += ExecProfileToString(profile);
  out += "memory: peak " + std::to_string(profile.total_peak_bytes) +
         " bytes, allocated " +
         std::to_string(profile.total_bytes_allocated) + " bytes\n";
  ParallelSummary par = SumParallel(profile);
  if (par.max_workers > 1) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "parallelism: eff=%.0f%% workers=%u morsels=%llu\n",
                  par.Efficiency() * 100.0, par.max_workers,
                  static_cast<unsigned long long>(par.morsels));
    out += line;
  }
  out += "feedback (est vs actual, worst first):\n";
  out += BuildPlanFeedback(profile).ToString();
  return out;
}

}  // namespace

std::string CompiledQuery::QueryString() const {
  return QueryToString(owner_->ctx(), query_);
}

std::string CompiledQuery::PlanString() const {
  return AlgExprToString(owner_->ctx(), translation_.plan);
}

std::string CompiledQuery::PlanTreeString() const {
  return AlgExprToTreeString(owner_->ctx(), translation_.plan);
}

std::string CompiledQuery::ExplainCompile() const {
  return obs::CompileProfileToString(profile_);
}

StatusOr<Relation> CompiledQuery::Run(const Database& db,
                                      AlgebraEvalStats* stats) const {
  return RunObserved(text_, physical_, {}, db, stats, nullptr);
}

StatusOr<Relation> CompiledQuery::RunWithProfile(const Database& db,
                                                 ExecProfile* profile) const {
  return RunObserved(text_, physical_, {}, db, nullptr, profile);
}

StatusOr<std::string> CompiledQuery::ExplainAnalyze(const Database& db) const {
  ExecProfile profile;
  auto answer = RunWithProfile(db, &profile);
  if (!answer.ok()) return answer.status();
  return RenderExplainAnalyze(PlanString(), {}, *answer, profile);
}

Compiler::Compiler() : Compiler(BuiltinFunctions()) {}

Compiler::Compiler(FunctionRegistry functions)
    : ctx_(std::make_unique<AstContext>()), functions_(std::move(functions)) {}

StatusOr<CompiledQuery> Compiler::Compile(std::string_view text,
                                          const TranslateOptions& options) {
  obs::Span span("compile");
  return CompileText(text, {}, options);
}

Status Compiler::DefineView(std::string_view name,
                            std::string_view query_text) {
  Symbol sym = ctx_->symbols().Intern(name);
  auto q = ParseQuery(*ctx_, query_text);
  if (!q.ok()) return q.status();
  if (Status s = CheckWellFormed(*q, ctx_->symbols()); !s.ok()) return s;
  // Reject definitions whose own expansion would be cyclic right away.
  ViewMap candidate = views_;
  candidate[sym] = *q;
  auto expanded = ExpandViews(*ctx_, q->body, candidate);
  if (!expanded.ok()) return expanded.status();
  views_[sym] = std::move(q).value();
  return Status::Ok();
}

StatusOr<CompiledQuery> Compiler::CompileQuery(
    const Query& q, const TranslateOptions& options) {
  obs::Span span("compile");
  const uint64_t start_ns = obs::NowNs();
  obs::CompilePhase profile;
  profile.name = "compile";
  return CompileImpl(q, {}, options, std::move(profile), start_ns,
                     QueryToString(*ctx_, q), /*parsed=*/false);
}

StatusOr<CompiledQuery> Compiler::CompileText(
    std::string_view text, const std::vector<Symbol>& params,
    const TranslateOptions& options) {
  const uint64_t start_ns = obs::NowNs();
  obs::CompilePhase profile;
  profile.name = "compile";
  ParseErrorInfo parse_error;
  StatusOr<Query> q = [&] {
    obs::PhaseTimer timer(&profile, "parse", "compile.parse");
    return ParseQuery(*ctx_, text, &parse_error);
  }();
  if (!q.ok()) {
    CompileMetrics::Get().queries.Add();
    CompileMetrics::Get().errors.Add();
    profile.wall_ns = obs::NowNs() - start_ns;
    std::vector<diag::Diagnostic> diags;
    if (LintToLogEnabled()) {
      diags.push_back(MakeParseDiagnostic(parse_error));
    }
    LogCompile(std::string(text), q.status(), profile, nullptr, nullptr,
               std::move(diags));
    return q.status();
  }
  // The bare-formula form puts every free variable in the head;
  // parameters are outputs of neither form.
  std::erase_if(q->head, [&](Symbol v) {
    return std::find(params.begin(), params.end(), v) != params.end();
  });
  return CompileImpl(*q, params, options, std::move(profile), start_ns,
                     std::string(text), /*parsed=*/true);
}

StatusOr<CompiledQuery> Compiler::CompileImpl(
    const Query& q, const std::vector<Symbol>& params,
    const TranslateOptions& options, obs::CompilePhase profile,
    uint64_t start_ns, std::string text, bool parsed) {
  CompileMetrics::Get().queries.Add();
  std::vector<diag::Diagnostic> log_diags;
  const bool lint_to_log = LintToLogEnabled() && obs::GetQueryLog() != nullptr;
  auto fail = [&](const Status& status,
                  const Translation* t) -> StatusOr<CompiledQuery> {
    CompileMetrics::Get().errors.Add();
    profile.wall_ns = obs::NowNs() - start_ns;
    LogCompile(text, status, profile, t, &q, std::move(log_diags));
    return status;
  };

  // Stage boundary 1: the calculus tree. Parsed (as opposed to
  // programmatically built) queries must carry source spans throughout.
  if (verify::Enabled()) {
    verify::VerifyReport vr =
        verify::VerifyCalculus(*ctx_, q, /*require_spans=*/parsed);
    if (!vr.ok()) {
      if (lint_to_log) log_diags = vr.ToDiagnostics();
      return fail(vr.ToStatus(), nullptr);
    }
  }
  // With EMCALC_LINT=1 every compile record carries the lint findings for
  // the query as written (pre-expansion, so spans point at the source).
  if (lint_to_log) log_diags = diag::LintQuery(*ctx_, q);

  Query expanded = q;
  {
    obs::PhaseTimer timer(&profile, "expand_views", "compile.expand_views");
    auto body = ExpandViews(*ctx_, q.body, views_);
    if (!body.ok()) return fail(body.status(), nullptr);
    expanded.body = *body;
  }

  // TranslateQuery emits its own "compile.translate" span; time the phase
  // here without a second span and graft the translation's phase tree
  // (rectify, safety, ENF, RANF, algebra_gen, optimize) under this node.
  uint64_t translate_start = obs::NowNs();
  StatusOr<Translation> translation =
      TranslateQuery(*ctx_, expanded, options, params);
  {
    profile.children.emplace_back();
    obs::CompilePhase& phase = profile.children.back();
    phase.name = "translate";
    phase.wall_ns = obs::NowNs() - translate_start;
    if (translation.ok()) {
      phase.children = std::move(translation->profile.children);
    }
  }
  if (!translation.ok()) {
    if (lint_to_log) {
      // Stage-boundary verification failures inside the translator surface
      // as structured diagnostics on the compile record, like lint findings.
      std::vector<diag::Diagnostic> vd =
          verify::DiagnosticsFromStatus(translation.status());
      for (diag::Diagnostic& d : vd) log_diags.push_back(std::move(d));
    }
    if (lint_to_log && translation.status().code() == StatusCode::kNotSafe) {
      // Re-run the safety check to attach the structured blame trace; the
      // bd sets are memoized per formula, so this costs one extra closure.
      EmAllowedChecker checker(*ctx_, EffectiveBound(options));
      SafetyResult safety = checker.CheckFormula(
          Rectify(*ctx_, expanded.body), SymbolSet(params));
      if (!safety.em_allowed) {
        log_diags.push_back(
            diag::BuildSafetyBlame(*ctx_, checker.bound(), safety));
      }
    }
    return fail(translation.status(), nullptr);
  }

  LoweredPlan physical = LowerForRuns(*ctx_, translation->plan, functions_,
                                      text, params.size(), profile);
  if (!physical.ok()) {
    // A stage-boundary verification failure means the lowered plan is
    // structurally wrong: fail the compile rather than hand out the query.
    std::vector<diag::Diagnostic> vd =
        verify::DiagnosticsFromStatus(physical.status());
    if (!vd.empty()) {
      if (lint_to_log) {
        for (diag::Diagnostic& d : vd) log_diags.push_back(std::move(d));
      }
      return fail(physical.status(), &*translation);
    }
  }

  profile.wall_ns = obs::NowNs() - start_ns;
  CompileMetrics::Get().wall_ns.Observe(static_cast<double>(profile.wall_ns));
  LogCompile(text, Status::Ok(), profile, &*translation, &expanded,
             std::move(log_diags));
  return CompiledQuery(this, expanded, std::move(translation).value(),
                       std::move(profile), std::move(text),
                       std::move(physical));
}

std::string QueryAnalysis::Render() const {
  return diag::Render(diagnostics, text);
}

std::string QueryAnalysis::ToJson() const {
  return diag::ToJson(diagnostics, text);
}

QueryAnalysis Compiler::Analyze(std::string_view text,
                                const TranslateOptions& options) {
  obs::Span span("compile.analyze");
  QueryAnalysis out;
  out.text = std::string(text);

  ParseErrorInfo parse_error;
  StatusOr<Query> parsed = ParseQuery(*ctx_, text, &parse_error);
  if (!parsed.ok()) {
    out.diagnostics.push_back(MakeParseDiagnostic(parse_error));
    return out;
  }
  out.parsed = true;

  // Lint the freshly parsed tree — before view expansion and
  // rectification, so findings (shadowing included) point at the source.
  std::vector<diag::Diagnostic> lint = diag::LintQuery(*ctx_, *parsed);

  // Parse/well-formedness/safety diagnostics go between lint errors and
  // lint warnings.
  std::vector<diag::Diagnostic> blame;
  auto body = ExpandViews(*ctx_, parsed->body, views_);
  if (!body.ok()) {
    blame.emplace_back("views.error", diag::Severity::kError,
                       body.status().message());
  } else {
    Query rectified{parsed->head, Rectify(*ctx_, *body)};
    if (Status wf = CheckWellFormed(rectified, ctx_->symbols()); !wf.ok()) {
      blame.emplace_back("query.malformed", diag::Severity::kError,
                         wf.message());
    } else {
      EmAllowedChecker checker(*ctx_, EffectiveBound(options));
      out.safety = checker.Check(rectified);
      if (out.safety.em_allowed) {
        out.safe = true;
      } else {
        blame.push_back(
            diag::BuildSafetyBlame(*ctx_, checker.bound(), out.safety));
      }
    }
  }

  for (diag::Diagnostic& d : lint) {
    if (d.severity == diag::Severity::kError) {
      out.diagnostics.push_back(std::move(d));
    }
  }
  for (diag::Diagnostic& d : blame) out.diagnostics.push_back(std::move(d));
  for (diag::Diagnostic& d : lint) {
    if (d.severity != diag::Severity::kError) {
      out.diagnostics.push_back(std::move(d));
    }
  }
  return out;
}

StatusOr<ParameterizedQuery> Compiler::CompileParameterized(
    std::string_view text, const std::vector<std::string>& params,
    const TranslateOptions& options) {
  obs::Span span("compile.parameterized");
  std::vector<Symbol> param_syms;
  for (const std::string& p : params) {
    param_syms.push_back(ctx_->symbols().Intern(p));
  }
  StatusOr<CompiledQuery> compiled = CompileText(text, param_syms, options);
  if (!compiled.ok()) return compiled.status();
  return ParameterizedQuery(std::move(compiled).value(), std::move(param_syms),
                            options.inverse_fns);
}

StatusOr<const AlgExpr*> ParameterizedQuery::PlanFor(
    const std::vector<Value>& args) const {
  obs::Span span("compile.plan_for");
  if (args.size() != params_.size()) {
    return InvalidArgumentError(
        "expected " + std::to_string(params_.size()) + " arguments, got " +
        std::to_string(args.size()));
  }
  AstContext& ctx = compiled_.owner_->ctx();
  Substitution sub;
  for (size_t i = 0; i < params_.size(); ++i) {
    sub.emplace(params_[i], ctx.MakeConst(args[i]));
  }
  // Constant substitution turns "RANF for params" into "RANF for {}".
  const Formula* grounded =
      SubstituteFormula(ctx, compiled_.translation().ranf, sub);
  AlgebraGenerator generator(ctx, inverses_);
  auto plan = generator.Translate(grounded, query().head);
  if (!plan.ok()) return plan.status();
  AlgebraFactory factory(ctx);
  return OptimizePlan(factory, *plan);
}

StatusOr<Relation> ParameterizedQuery::Run(const Database& db,
                                           const std::vector<Value>& args,
                                           AlgebraEvalStats* stats) const {
  return RunObserved(compiled_.text_, compiled_.physical_, args, db, stats,
                     nullptr);
}

StatusOr<Relation> ParameterizedQuery::RunWithProfile(
    const Database& db, const std::vector<Value>& args,
    ExecProfile* profile) const {
  return RunObserved(compiled_.text_, compiled_.physical_, args, db, nullptr,
                     profile);
}

StatusOr<std::string> ParameterizedQuery::ExplainAnalyze(
    const Database& db, const std::vector<Value>& args) const {
  ExecProfile profile;
  auto answer = RunWithProfile(db, args, &profile);
  if (!answer.ok()) return answer.status();
  return RenderExplainAnalyze(PlanString(), args, *answer, profile);
}

}  // namespace emcalc
