// Tests for the diagnostics engine: source spans through the parser,
// located parse errors, the safety blame trace (golden renderings for the
// paper's Section-1 unsafe examples), the lint rules, the query-log
// diagnostics attachment, and the JSON round-trip.
#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/diag/blame.h"
#include "src/diag/diagnostic.h"
#include "src/diag/lint.h"
#include "src/diag/source.h"
#include "src/finds/find_set.h"
#include "src/obs/inspect.h"
#include "src/obs/json.h"
#include "src/obs/query_log.h"
#include "src/safety/em_allowed.h"

namespace emcalc {
namespace {

using diag::Diagnostic;
using diag::Severity;
using diag::SourceSpan;

// --- source positions ---

TEST(SourceTest, ResolveLineCol) {
  std::string_view src = "ab\ncde\nf";
  EXPECT_EQ(diag::ResolveLineCol(src, 0).line, 1);
  EXPECT_EQ(diag::ResolveLineCol(src, 0).column, 1);
  EXPECT_EQ(diag::ResolveLineCol(src, 3).line, 2);
  EXPECT_EQ(diag::ResolveLineCol(src, 3).column, 1);
  EXPECT_EQ(diag::ResolveLineCol(src, 5).line, 2);
  EXPECT_EQ(diag::ResolveLineCol(src, 5).column, 3);
  EXPECT_EQ(diag::ResolveLineCol(src, 7).line, 3);
  // Past-the-end clamps.
  EXPECT_EQ(diag::ResolveLineCol(src, 99).line, 3);
}

TEST(SourceTest, CaretSnippetUnderlinesSpan) {
  std::string snip = diag::CaretSnippet("{x | not R(x)}", {5, 13});
  EXPECT_EQ(snip,
            "  | {x | not R(x)}\n"
            "  |      ^~~~~~~~\n");
}

// --- parser spans ---

class SpanTest : public ::testing::Test {
 protected:
  const SourceSpan* SpanOfBody(std::string_view text) {
    auto q = ParseQuery(ctx_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    body_ = q->body;
    return ctx_.SpanOf(q->body);
  }
  AstContext ctx_;
  const Formula* body_ = nullptr;
};

TEST_F(SpanTest, BodySpanCoversSourceText) {
  std::string text = "{x | not R(x)}";
  const SourceSpan* span = SpanOfBody(text);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(text.substr(span->begin, span->end - span->begin), "not R(x)");
}

TEST_F(SpanTest, AtomAndQuantifierSpans) {
  std::string text = "{x | R(x) and exists y (S(x, y))}";
  const SourceSpan* span = SpanOfBody(text);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(text.substr(span->begin, span->end - span->begin),
            "R(x) and exists y (S(x, y))");
  ASSERT_EQ(body_->kind(), FormulaKind::kAnd);
  const SourceSpan* left = ctx_.SpanOf(body_->children()[0]);
  const SourceSpan* right = ctx_.SpanOf(body_->children()[1]);
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(text.substr(left->begin, left->end - left->begin), "R(x)");
  EXPECT_EQ(text.substr(right->begin, right->end - right->begin),
            "exists y (S(x, y))");
}

TEST_F(SpanTest, SharedSingletonsNeverGetSpans) {
  auto q = ParseQuery(ctx_, "{x | R(x) and true}");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(ctx_.SpanOf(ctx_.True()), nullptr);
  EXPECT_EQ(ctx_.SpanOf(ctx_.False()), nullptr);
}

TEST_F(SpanTest, ParseErrorReportsLineColumnAndCaret) {
  ParseErrorInfo info;
  auto q = ParseQuery(ctx_, "{x | R(x and}", &info);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("line 1, column 10"),
            std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("^"), std::string::npos);
  EXPECT_EQ(info.offset, 9u);
  EXPECT_EQ(info.message, "expected ')'");
}

TEST_F(SpanTest, MultiLineParseErrorPosition) {
  ParseErrorInfo info;
  auto q = ParseQuery(ctx_, "{x |\n  R(x) and\n  not }", &info);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("line 3"), std::string::npos)
      << q.status().ToString();
}

// --- FinD closure traces ---

TEST(TraceClosureTest, RecordsFiringOrderAndBlockedFinDs) {
  SymbolTable syms;
  Symbol a = syms.Intern("a"), b = syms.Intern("b"), c = syms.Intern("c"),
         d = syms.Intern("d");
  FinDSet finds;
  finds.Add({SymbolSet{}, SymbolSet{a}});
  finds.Add({SymbolSet{a}, SymbolSet{b}});
  finds.Add({SymbolSet{c}, SymbolSet{d}});
  FinDSet::ClosureTrace trace = finds.TraceClosure(SymbolSet{});
  EXPECT_EQ(trace.closure, (SymbolSet{a, b}));
  EXPECT_EQ(trace.closure, finds.Closure(SymbolSet{}));
  EXPECT_EQ(trace.closure, finds.LinearClosure(SymbolSet{}));
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].find_index, 0u);
  EXPECT_EQ(trace.steps[0].added, SymbolSet{a});
  EXPECT_EQ(trace.steps[1].find_index, 1u);
  EXPECT_EQ(trace.steps[1].added, SymbolSet{b});
  ASSERT_EQ(trace.blocked.size(), 1u);
  EXPECT_EQ(trace.blocked[0], 2u);
}

TEST(TraceClosureTest, MatchesClosureOnRandomSets) {
  SymbolTable syms;
  std::vector<Symbol> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(syms.Intern("v" + std::to_string(i)));
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 200; ++round) {
    FinDSet finds;
    for (int i = 0; i < 4; ++i) {
      SymbolSet lhs, rhs;
      for (Symbol v : pool) {
        if (next() % 3 == 0) lhs.Insert(v);
        if (next() % 3 == 0) rhs.Insert(v);
      }
      finds.Add({lhs, rhs});
    }
    SymbolSet start;
    for (Symbol v : pool) {
      if (next() % 4 == 0) start.Insert(v);
    }
    FinDSet::ClosureTrace trace = finds.TraceClosure(start);
    EXPECT_EQ(trace.closure, finds.Closure(start));
    // Every blocked FinD really has an unconfined lhs variable.
    for (size_t i : trace.blocked) {
      EXPECT_FALSE(finds.finds()[i].lhs.IsSubsetOf(trace.closure));
    }
  }
}

// --- structured safety results ---

class BlameTest : public ::testing::Test {
 protected:
  // Full front-end analysis, rendered (the golden form).
  std::string Render(std::string_view text) {
    emcalc::QueryAnalysis a = compiler_.Analyze(text);
    return a.Render();
  }
  Compiler compiler_;
};

TEST_F(BlameTest, StructuredFieldsOnRejection) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | not R(x)}");
  ASSERT_TRUE(q.ok());
  SafetyResult r = CheckEmAllowed(ctx, *q);
  ASSERT_FALSE(r.em_allowed);
  EXPECT_EQ(r.violation, SafetyViolation::kUnboundedFree);
  EXPECT_EQ(SafetyViolationCode(r.violation), "safety.unbounded-free");
  EXPECT_TRUE(r.unbounded.Contains(ctx.symbols().Intern("x")));
  EXPECT_TRUE(r.blame_context.empty());
  ASSERT_NE(r.blamed, nullptr);
  ASSERT_NE(r.checked, nullptr);
  // Back-compat: the flat reason string still names the variable.
  EXPECT_NE(r.reason.find("x"), std::string::npos);
}

TEST_F(BlameTest, AcceptedQueryHasNoViolation) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x)}");
  ASSERT_TRUE(q.ok());
  SafetyResult r = CheckEmAllowed(ctx, *q);
  EXPECT_TRUE(r.em_allowed);
  EXPECT_EQ(r.violation, SafetyViolation::kNone);
  EXPECT_EQ(SafetyViolationCode(r.violation), "");
  EXPECT_TRUE(r.unbounded.empty());
  EXPECT_TRUE(r.reason.empty());
}

// Golden blame traces for the paper's Section-1 unsafe examples.

TEST_F(BlameTest, GoldenNegatedAtom) {
  // {x | not R(x)}: x ranges over everything outside R.
  EXPECT_EQ(Render("{x | not R(x)}"),
            "error[safety.unbounded-free]: variables {x} cannot be confined"
            " to a finite set\n"
            " --> line 1, column 6\n"
            "  | {x | not R(x)}\n"
            "  |      ^~~~~~~~\n"
            "  = note: em-allowed condition (1) failed at subformula:"
            " not R(x)\n"
            "  = note: needed: {} -> {x}\n"
            "  = note: bd = {  }\n"
            "  = note: no finiteness dependency was applicable from"
            " context {}\n"
            "  = note: closure reached {}; never confined: {x}\n");
}

TEST_F(BlameTest, GoldenFunctionInversion) {
  // {x | exists y (R(y) and f(x) = y)}: knowing f(x) does not pin down x
  // (no inverse declared) — the paper's function-inversion example.
  EXPECT_EQ(Render("{x | exists y (R(y) and f(x) = y)}"),
            "error[safety.unbounded-free]: variables {x} cannot be confined"
            " to a finite set\n"
            " --> line 1, column 6\n"
            "  | {x | exists y (R(y) and f(x) = y)}\n"
            "  |      ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "  = note: em-allowed condition (1) failed at subformula:"
            " exists y (R(y) and f(x) = y)\n"
            "  = note: needed: {} -> {x}\n"
            "  = note: bd = {  }\n"
            "  = note: no finiteness dependency was applicable from"
            " context {}\n"
            "  = note: closure reached {}; never confined: {x}\n");
}

TEST_F(BlameTest, GoldenUnboundedQuantifier) {
  // Condition (2): the quantified variable never appears, so nothing
  // confines it. The blame trace shows the attempted derivation (bd of the
  // body bounds x but can never reach y) and the lint pass flags the unused
  // quantifier independently.
  EXPECT_EQ(
      Render("{x | R(x) and exists y (S(x))}"),
      "error[safety.unbounded-quantified]: variables {y} cannot be confined"
      " to a finite set\n"
      " --> line 1, column 15\n"
      "  | {x | R(x) and exists y (S(x))}\n"
      "  |               ^~~~~~~~~~~~~~~\n"
      "  = note: em-allowed condition (2) failed at subformula:"
      " exists y (S(x))\n"
      "  = note: checked (after rewriting): S(x)\n"
      "  = note: needed: {x} -> {y}\n"
      "  = note: bd = { {}->{x} }\n"
      "  = note: no finiteness dependency was applicable from context {x}\n"
      "  = note: closure reached {x}; never confined: {y}\n"
      "warning[lint.unused-quantified-var]: quantified variable 'y' is not"
      " used in the body\n"
      " --> line 1, column 15\n"
      "  | {x | R(x) and exists y (S(x))}\n"
      "  |               ^~~~~~~~~~~~~~~\n");
}

TEST_F(BlameTest, GoldenNegatedQuantifier) {
  // Condition (3): the quantifier is checked under a pushed negation; f(y)
  // inside the atom does not make y a direct argument, so bd cannot bound
  // it.
  EXPECT_EQ(
      Render("{x | R(x) and not exists y (T(x, f(y)))}"),
      "error[safety.unbounded-negated]: variables {y} cannot be confined"
      " to a finite set\n"
      " --> line 1, column 15\n"
      "  | {x | R(x) and not exists y (T(x, f(y)))}\n"
      "  |               ^~~~~~~~~~~~~~~~~~~~~~~~~\n"
      "  = note: em-allowed condition (3) failed at subformula:"
      " forall y (not T(x, f(y)))\n"
      "  = note: checked (after rewriting): T(x, f(y))\n"
      "  = note: needed: {x} -> {y}\n"
      "  = note: bd = { {}->{x} }\n"
      "  = note: no finiteness dependency was applicable from context {x}\n"
      "  = note: closure reached {x}; never confined: {y}\n");
}

TEST_F(BlameTest, BlameTraceShowsFiredFinDs) {
  // g(y) = x bounds x once y is known; y is never confined, so the
  // g-dependency is blocked — and the trace says so.
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | f(x) = y}");
  ASSERT_TRUE(q.ok());
  EmAllowedChecker checker(ctx);
  SafetyResult r = checker.Check(*q);
  ASSERT_FALSE(r.em_allowed);
  Diagnostic d = diag::BuildSafetyBlame(ctx, checker.bound(), r);
  EXPECT_EQ(d.code, "safety.unbounded-free");
  std::string rendered = diag::Render(d, "{x | f(x) = y}");
  // bd({x | f(x) = y}) = { {x}->{y} }: applicable only once x is confined,
  // which never happens — the derivation must name it as blocked.
  EXPECT_NE(rendered.find("blocked {x}->{y}: needs {x}, never confined"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("never confined: {x,y}"), std::string::npos)
      << rendered;
}

TEST_F(BlameTest, FiredStepsAppearInDerivation) {
  // x is confined via R(x); z needs w which is never confined. The trace
  // shows the fired dependency and the blocked one.
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x, z | R(x) and f(w) = z}");
  ASSERT_TRUE(q.ok());
  EmAllowedChecker checker(ctx);
  SafetyResult r = checker.Check(*q);
  ASSERT_FALSE(r.em_allowed);
  EXPECT_TRUE(r.unbounded.Contains(ctx.symbols().Intern("z")));
  EXPECT_TRUE(r.unbounded.Contains(ctx.symbols().Intern("w")));
  EXPECT_FALSE(r.unbounded.Contains(ctx.symbols().Intern("x")));
  Diagnostic d = diag::BuildSafetyBlame(ctx, checker.bound(), r);
  std::string rendered = diag::Render(d, "");
  EXPECT_NE(rendered.find("fired {}->{x}, confining {x}"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("blocked {w}->{z}: needs {w}, never confined"),
            std::string::npos)
      << rendered;
}

// --- lint rules ---

class LintTest : public ::testing::Test {
 protected:
  std::vector<Diagnostic> Lint(std::string_view text,
                               const diag::LintOptions& options = {}) {
    auto f = ParseFormula(ctx_, text);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return diag::LintFormula(ctx_, *f, options);
  }
  bool Has(const std::vector<Diagnostic>& ds, std::string_view code) {
    for (const Diagnostic& d : ds) {
      if (d.code == code) return true;
    }
    return false;
  }
  AstContext ctx_;
};

TEST_F(LintTest, CleanFormulaHasNoFindings) {
  EXPECT_TRUE(Lint("R(x, y) and S(y)").empty());
  EXPECT_TRUE(Lint("exists y (R(x, y) and not S(y))").empty());
}

TEST_F(LintTest, RelationArityConflict) {
  auto ds = Lint("R(x) and R(x, y)");
  ASSERT_TRUE(Has(ds, "lint.rel-arity-conflict"));
  for (const Diagnostic& d : ds) {
    if (d.code == "lint.rel-arity-conflict") {
      EXPECT_EQ(d.severity, Severity::kError);
      EXPECT_NE(d.message.find("'R'"), std::string::npos);
      EXPECT_TRUE(d.span.has_value());
    }
  }
}

TEST_F(LintTest, FunctionArityConflict) {
  auto ds = Lint("f(x) = y and f(x, y) = z");
  EXPECT_TRUE(Has(ds, "lint.fn-arity-conflict"));
}

TEST_F(LintTest, UnusedQuantifiedVariable) {
  auto ds = Lint("exists y (R(x))");
  ASSERT_TRUE(Has(ds, "lint.unused-quantified-var"));
  EXPECT_FALSE(Has(Lint("exists y (R(y))"), "lint.unused-quantified-var"));
}

TEST_F(LintTest, ShadowedVariable) {
  EXPECT_TRUE(Has(Lint("R(x) and exists x (S(x))"), "lint.shadowed-var"));
  EXPECT_TRUE(
      Has(Lint("exists x (R(x) and forall x (S(x)))"), "lint.shadowed-var"));
  EXPECT_FALSE(Has(Lint("exists x (R(x)) and exists x (S(x))"),
                   "lint.shadowed-var"));
}

TEST_F(LintTest, UnsatisfiableEqualityChain) {
  EXPECT_TRUE(Has(Lint("R(x) and x = 1 and x = 2"), "lint.unsat-equality"));
  EXPECT_TRUE(Has(Lint("R(x) and 1 = 2"), "lint.unsat-equality"));
  EXPECT_FALSE(Has(Lint("R(x) and x = 1 and x = 1"), "lint.unsat-equality"));
  EXPECT_FALSE(Has(Lint("x = 1 or x = 2"), "lint.unsat-equality"));
}

TEST_F(LintTest, CrossProduct) {
  EXPECT_TRUE(Has(Lint("R(x) and S(y)"), "lint.cross-product"));
  EXPECT_FALSE(Has(Lint("R(x) and S(x, y)"), "lint.cross-product"));
  // Constant-only conjuncts are not flagged (no variables to join on).
  EXPECT_FALSE(Has(Lint("R(x) and S(1)"), "lint.cross-product"));
}

TEST_F(LintTest, FunctionDepth) {
  EXPECT_TRUE(
      Has(Lint("f(f(f(f(x)))) = y and R(x)"), "lint.function-depth"));
  EXPECT_FALSE(Has(Lint("f(f(f(x))) = y and R(x)"), "lint.function-depth"));
  diag::LintOptions relaxed;
  relaxed.function_depth_threshold = 0;  // disabled
  EXPECT_FALSE(
      Has(Lint("f(f(f(f(x)))) = y and R(x)", relaxed), "lint.function-depth"));
  diag::LintOptions strict;
  strict.function_depth_threshold = 2;
  EXPECT_TRUE(Has(Lint("f(f(x)) = y and R(x)", strict), "lint.function-depth"));
}

TEST_F(LintTest, FindingsOnAcceptedQueries) {
  // The whole point of the lint pass: warnings fire even when the safety
  // analysis accepts the query.
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x, y | R(x) and S(y)}");
  EXPECT_TRUE(a.parsed);
  EXPECT_TRUE(a.safe);
  EXPECT_FALSE(a.HasErrors());
  ASSERT_EQ(diag::CountWarnings(a.diagnostics), 1u);
  EXPECT_EQ(a.diagnostics[0].code, "lint.cross-product");
}

// --- Compiler::Analyze ---

TEST(AnalyzeTest, ParseErrorProducesLocatedDiagnostic) {
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x | R(x and}");
  EXPECT_FALSE(a.parsed);
  EXPECT_TRUE(a.HasErrors());
  ASSERT_EQ(a.diagnostics.size(), 1u);
  EXPECT_EQ(a.diagnostics[0].code, "parse.error");
  ASSERT_TRUE(a.diagnostics[0].span.has_value());
  EXPECT_EQ(a.diagnostics[0].span->begin, 9u);
}

TEST(AnalyzeTest, SafeQueryIsSafe) {
  Compiler compiler;
  emcalc::QueryAnalysis a =
      compiler.Analyze("{y | exists x (R(x) and y = succ(x))}");
  EXPECT_TRUE(a.parsed);
  EXPECT_TRUE(a.safe);
  EXPECT_TRUE(a.safety.em_allowed);
  EXPECT_TRUE(a.diagnostics.empty());
}

TEST(AnalyzeTest, AnalyzeSeesThroughViews) {
  Compiler compiler;
  ASSERT_TRUE(compiler.DefineView("Pairs", "{x, y | f(x) = y}").ok());
  // The view alone is not em-allowed, but this use bounds x.
  emcalc::QueryAnalysis good =
      compiler.Analyze("{x, y | R(x) and Pairs(x, y)}");
  EXPECT_TRUE(good.safe) << good.Render();
  // This use does not; the rejection surfaces through the expansion.
  emcalc::QueryAnalysis bad = compiler.Analyze("{x, y | Pairs(x, y)}");
  EXPECT_TRUE(bad.parsed);
  EXPECT_FALSE(bad.safe);
  EXPECT_TRUE(bad.HasErrors());
  EXPECT_EQ(bad.diagnostics[0].code, "safety.unbounded-free");
}

TEST(AnalyzeTest, MalformedQueryReported) {
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x | R(y)}");
  EXPECT_TRUE(a.parsed);
  EXPECT_FALSE(a.safe);
  EXPECT_TRUE(a.HasErrors());
  ASSERT_FALSE(a.diagnostics.empty());
  EXPECT_EQ(a.diagnostics[0].code, "query.malformed");
}

TEST(AnalyzeTest, JsonCarriesSpansAndNotes) {
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x | not R(x)}");
  auto json = obs::ParseJson(a.ToJson());
  ASSERT_TRUE(json.ok()) << a.ToJson();
  ASSERT_TRUE(json->is_array());
  ASSERT_EQ(json->array.size(), 1u);
  const obs::JsonValue& d = json->array[0];
  EXPECT_EQ(d.StringOr("code", ""), "safety.unbounded-free");
  EXPECT_EQ(d.StringOr("severity", ""), "error");
  const obs::JsonValue* span = d.Find("span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->NumberOr("begin", -1), 5);
  EXPECT_EQ(span->NumberOr("line", -1), 1);
  EXPECT_EQ(span->NumberOr("col", -1), 6);
  const obs::JsonValue* notes = d.Find("notes");
  ASSERT_NE(notes, nullptr);
  EXPECT_TRUE(notes->is_array());
  EXPECT_GE(notes->array.size(), 3u);
}

// --- diagnostics JSON round-trip ---

TEST(DiagnosticJsonTest, RoundTrip) {
  Diagnostic d("safety.unbounded-free", Severity::kError,
               "variables {x} cannot be confined to a finite set");
  d.WithSpan({5, 13});
  d.AddNote("needed: {} -> {x}");
  d.notes.push_back(
      Diagnostic("lint.cross-product", Severity::kWarning, "nested"));
  auto json = obs::ParseJson(diag::ToJson(d));
  ASSERT_TRUE(json.ok());
  Diagnostic back = diag::DiagnosticFromJson(*json);
  EXPECT_EQ(back.code, d.code);
  EXPECT_EQ(back.severity, d.severity);
  EXPECT_EQ(back.message, d.message);
  ASSERT_TRUE(back.span.has_value());
  EXPECT_EQ(*back.span, *d.span);
  ASSERT_EQ(back.notes.size(), 2u);
  EXPECT_EQ(back.notes[0].message, "needed: {} -> {x}");
  EXPECT_EQ(back.notes[1].code, "lint.cross-product");
  EXPECT_EQ(back.notes[1].severity, Severity::kWarning);
}

TEST(DiagnosticJsonTest, RoundTripWithResolvedLineCol) {
  // line/col are derived; the parser must ignore them on the way back in.
  Diagnostic d("parse.error", Severity::kError, "expected ')'");
  d.WithSpan({9, 10});
  auto json = obs::ParseJson(diag::ToJson(d, "{x | R(x and}"));
  ASSERT_TRUE(json.ok());
  Diagnostic back = diag::DiagnosticFromJson(*json);
  ASSERT_TRUE(back.span.has_value());
  EXPECT_EQ(back.span->begin, 9u);
  EXPECT_EQ(back.span->end, 10u);
}

// --- query-log attachment (EMCALC_LINT) ---

class QueryLogLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_ = std::make_unique<obs::QueryLog>(&sink_);
    obs::SetQueryLog(log_.get());
    ::setenv("EMCALC_LINT", "1", 1);
  }
  void TearDown() override {
    ::unsetenv("EMCALC_LINT");
    obs::SetQueryLog(nullptr);
  }

  std::vector<obs::QueryLogRecord> Records() {
    obs::QueryLogScan scan = obs::ParseQueryLogText(sink_.str());
    EXPECT_EQ(scan.bad_lines, 0u) << sink_.str();
    return scan.compiles;
  }

  std::ostringstream sink_;
  std::unique_ptr<obs::QueryLog> log_;
};

TEST_F(QueryLogLintTest, LintWarningsAttachToCompileRecords) {
  Compiler compiler;
  auto q = compiler.Compile("{x, y | R(x) and S(y)}");
  ASSERT_TRUE(q.ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok);
  ASSERT_EQ(records[0].diagnostics.size(), 1u);
  EXPECT_EQ(records[0].diagnostics[0].code, "lint.cross-product");
  EXPECT_EQ(records[0].diagnostics[0].severity, Severity::kWarning);
}

TEST_F(QueryLogLintTest, SafetyBlameAttachesOnRejection) {
  Compiler compiler;
  auto q = compiler.Compile("{x | not R(x)}");
  ASSERT_FALSE(q.ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_FALSE(records[0].em_allowed);
  ASSERT_FALSE(records[0].diagnostics.empty());
  const Diagnostic& blame = records[0].diagnostics[0];
  EXPECT_EQ(blame.code, "safety.unbounded-free");
  ASSERT_TRUE(blame.span.has_value());
  EXPECT_EQ(blame.span->begin, 5u);
  EXPECT_FALSE(blame.notes.empty());
}

TEST_F(QueryLogLintTest, NoDiagnosticsWithoutOptIn) {
  ::unsetenv("EMCALC_LINT");
  Compiler compiler;
  auto q = compiler.Compile("{x, y | R(x) and S(y)}");
  ASSERT_TRUE(q.ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].diagnostics.empty());
}

TEST_F(QueryLogLintTest, ParameterizedCompileRecordsCarryDiagnostics) {
  Compiler compiler;
  EXPECT_FALSE(compiler.CompileParameterized("{x | R(x, d", {"d"}).ok());
  EXPECT_TRUE(
      compiler.CompileParameterized("{x, y | R(x, d) and S(y)}", {"d"}).ok());
  EXPECT_FALSE(compiler.CompileParameterized("{x | not R(x, d)}", {"d"}).ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 3u);
  // Unparsable: the located parse error.
  ASSERT_EQ(records[0].diagnostics.size(), 1u);
  EXPECT_EQ(records[0].diagnostics[0].code, "parse.error");
  // Accepted: the lint finding.
  EXPECT_TRUE(records[1].ok);
  ASSERT_EQ(records[1].diagnostics.size(), 1u);
  EXPECT_EQ(records[1].diagnostics[0].code, "lint.cross-product");
  // Not em-allowed for {d}: the safety blame, located in the source.
  EXPECT_FALSE(records[2].em_allowed);
  ASSERT_FALSE(records[2].diagnostics.empty());
  const Diagnostic& blame = records[2].diagnostics[0];
  EXPECT_EQ(blame.code, "safety.unbounded-free");
  ASSERT_TRUE(blame.span.has_value());
  EXPECT_EQ(blame.span->begin, 5u);
}

// --- property: rejections blame genuinely unbounded variables ---

class DiagPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiagPropertyTest, RejectionsNameUnconfinedVariables) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam());
  EmAllowedChecker checker(ctx);
  int rejected = 0;
  for (int i = 0; i < 60; ++i) {
    Query q = gen.Next();
    SafetyResult r = checker.Check(q);
    if (r.em_allowed) continue;
    ++rejected;
    SCOPED_TRACE(QueryToString(ctx, q));
    // Every rejection names at least one variable...
    EXPECT_EQ(r.violation == SafetyViolation::kNone, false);
    ASSERT_FALSE(r.unbounded.empty());
    ASSERT_NE(r.checked, nullptr);
    ASSERT_NE(r.blamed, nullptr);
    EXPECT_TRUE(r.unbounded.IsSubsetOf(r.blame_targets));
    // ...that is genuinely not in the FinD closure of the context —
    // cross-validated with the naive fixpoint closure, independent of the
    // linear-counter algorithm the checker itself uses.
    const FinDSet& bd = checker.bound().Bound(r.checked);
    SymbolSet closure = bd.Closure(r.blame_context);
    for (Symbol v : r.unbounded) {
      EXPECT_FALSE(closure.Contains(v))
          << "blamed variable " << ctx.symbols().Name(v)
          << " is actually bounded";
    }
    // The blame trace can always be built and renders the variables.
    diag::Diagnostic d = diag::BuildSafetyBlame(ctx, checker.bound(), r);
    EXPECT_FALSE(d.message.empty());
    EXPECT_FALSE(d.notes.empty());
  }
  EXPECT_GT(rejected, 0) << "generator produced no rejected queries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace emcalc
