// ParameterizedQuery plans once: CompileParameterized translates, optimizes
// and lowers one plan whose parameter slots stand where the arguments go,
// and Run binds the arguments into it. These tests hold that design to the
// substitution path it replaced (PlanFor: substitute the arguments as
// constants, translate afresh) and to the bounded-memory half of the
// contract in src/core/compiler.h.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"

namespace emcalc {
namespace {

// Builtins plus the uninterpreted unary functions f, g, h, k of the
// paper's corpus, pure and onto a small range so images meet the data.
FunctionRegistry CorpusFunctions() {
  FunctionRegistry reg = BuiltinFunctions();
  auto mod_fn = [](int64_t mul, int64_t add) {
    return [mul, add](std::span<const Value> a) {
      int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
      return Value::Int((n * mul + add) % 7);
    };
  };
  reg.Register("f", 1, mod_fn(1, 1));
  reg.Register("g", 1, mod_fn(2, 0));
  reg.Register("h", 1, mod_fn(3, 2));
  reg.Register("k", 1, mod_fn(1, 4));
  return reg;
}

struct Case {
  const char* text;  // bare formula or {head | body}
  std::vector<std::pair<std::string, int>> schema;
  // Parameter sets tried besides each single free variable.
  std::vector<std::vector<std::string>> extra_params;
};

// The paper's corpus (q1, q2, q4-q6; q3 has no text and q7 is not
// em-allowed) and the two payroll texts of the host-path benchmark, in
// bare-formula form so that every free variable can be a parameter.
std::vector<Case> Cases() {
  return {
      {"exists x (R(x) and y = g(f(x)))", {{"R", 1}}, {}},
      {"R(x) and exists y (f(x) = y and not R(y))", {{"R", 1}}, {}},
      {"B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
       "((h(x) != y and k(x) != y) or P(x, y)))",
       {{"B", 1}, {"R", 2}, {"P", 2}},
       {}},
      {"(R(x) and f(x) = y) or (S(y) and g(y) = x)",
       {{"R", 1}, {"S", 1}},
       {}},
      {"R(x, y, z) and not S(y, z)", {{"R", 3}, {"S", 2}}, {{"y", "z"}}},
      {"exists s (EMP(e, d, s) and BONUS(e, b) and cap <= b)",
       {{"EMP", 3}, {"BONUS", 2}},
       {{"d", "cap"}}},
      {"DEPT(d, b)", {{"DEPT", 2}}, {}},
  };
}

// One parameterized query with its argument tuples and, per tuple, the
// answer of each substitution-path oracle.
struct Checked {
  std::string label;
  std::vector<std::vector<Value>> args;
  std::vector<Relation> expected;
};

// The cached plan with each $i printed as the i-th argument.
std::string BindSlots(std::string plan, const std::vector<Value>& args) {
  for (size_t i = args.size(); i-- > 0;) {
    const std::string slot = "$" + std::to_string(i + 1);
    for (size_t pos = plan.find(slot); pos != std::string::npos;
         pos = plan.find(slot, pos)) {
      plan.replace(pos, slot.size(), args[i].ToString());
    }
  }
  return plan;
}

// Run(db, args) equals EvaluateAlgebraLegacy(PlanFor(args)) and a Compile
// of the grounded text, for every corpus and payroll query parameterized on
// each free variable it is em-allowed for, over seeded arguments, called
// from one host thread and then from four at once on one shared database.
TEST(ParameterizedDifferentialTest, RunMatchesSubstitutionPath) {
  const FunctionRegistry functions = CorpusFunctions();
  std::mt19937_64 rng(20240607);
  int parameterizations = 0;
  for (const Case& c : Cases()) {
    Database db = RandomDatabase(c.schema, 30, 7, rng());
    Compiler compiler(functions);
    std::vector<std::vector<std::string>> param_sets = c.extra_params;
    {
      AstContext scratch;
      auto parsed = ParseQuery(scratch, c.text);
      ASSERT_TRUE(parsed.ok()) << c.text << ": " << parsed.status().ToString();
      for (Symbol v : FreeVars(parsed->body)) {
        param_sets.push_back({std::string(scratch.symbols().Name(v))});
      }
    }

    std::vector<ParameterizedQuery> queries;
    std::vector<Checked> checks;
    for (const std::vector<std::string>& params : param_sets) {
      auto pq = compiler.CompileParameterized(c.text, params);
      std::string label = std::string(c.text) + " for {";
      for (const std::string& p : params) label += " " + p;
      label += " }";
      if (!pq.ok()) {
        // Not em-allowed for this parameter set; nothing to compare.
        ASSERT_EQ(pq.status().code(), StatusCode::kNotSafe)
            << label << ": " << pq.status().ToString();
        continue;
      }
      ++parameterizations;
      Checked check;
      check.label = label;
      for (int a = 0; a < 6; ++a) {
        std::vector<Value> args;
        for (size_t i = 0; i < params.size(); ++i) {
          args.push_back(Value::Int(static_cast<int64_t>(rng() % 9)));
        }
        // Oracle 1: the substitution path through the legacy interpreter.
        auto grounded_plan = pq->PlanFor(args);
        ASSERT_TRUE(grounded_plan.ok()) << grounded_plan.status().ToString();
        auto legacy = EvaluateAlgebraLegacy(compiler.ctx(), *grounded_plan,
                                            db, compiler.functions());
        ASSERT_TRUE(legacy.ok()) << label << ": " << legacy.status().ToString();
        // The cached plan has the grounded plan's shape, with parameter
        // slots where the argument constants are.
        EXPECT_EQ(BindSlots(pq->PlanString(), args),
                  AlgExprToString(compiler.ctx(), *grounded_plan))
            << label;
        // Oracle 2: compile the grounded text and run it.
        Substitution sub;
        for (size_t i = 0; i < params.size(); ++i) {
          sub.emplace(pq->parameters()[i], compiler.ctx().MakeConst(args[i]));
        }
        const Query grounded{
            pq->query().head,
            SubstituteFormula(compiler.ctx(), pq->query().body, sub)};
        const std::string grounded_text =
            QueryToString(compiler.ctx(), grounded);
        Compiler direct(functions);
        auto dq = direct.Compile(grounded_text);
        ASSERT_TRUE(dq.ok()) << grounded_text << ": " << dq.status().ToString();
        auto compiled = dq->Run(db);
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
        EXPECT_EQ(*legacy, *compiled) << grounded_text;
        check.args.push_back(std::move(args));
        check.expected.push_back(std::move(legacy).value());
      }
      queries.push_back(std::move(pq).value());
      checks.push_back(std::move(check));
    }

    // One host thread.
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t a = 0; a < checks[q].args.size(); ++a) {
        auto answer = queries[q].Run(db, checks[q].args[a]);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        EXPECT_EQ(*answer, checks[q].expected[a]) << checks[q].label;
      }
    }
    // Four host threads sharing every query and the database, each
    // walking the argument tuples from a different offset.
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = 0; q < queries.size(); ++q) {
          const size_t n = checks[q].args.size();
          for (size_t k = 0; k < n; ++k) {
            const size_t a = (k + static_cast<size_t>(t)) % n;
            auto answer = queries[q].Run(db, checks[q].args[a]);
            if (!answer.ok() || !(*answer == checks[q].expected[a])) {
              ++mismatches;
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << c.text;
  }
  // q1 {y}, q2 {x}, q4 and q5 {x} {y}, q6 {x} {y} {z} {y,z}, the payroll
  // join {cap} {d,cap} and DEPT {d} {b}; the other payroll-join
  // singletons leave cap unbounded.
  EXPECT_EQ(parameterizations, 14);
}

// AddressSanitizer keeps freed blocks in a quarantine of up to 256 MB
// before reuse, so under it RSS grows with the bytes freed, not with what
// the library keeps.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

// Resident set size of this process in KiB, from /proc/self/status.
size_t VmRssKiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long kib = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %lu kB", &kib) == 1) return kib;
  }
  return 0;
}

// 100k calls over varying arguments on one compiler: after a warm-up the
// compiler's arena does not grow at all, and the process RSS stays flat
// (checked where RSS reflects live memory, i.e. not under ASan).
TEST(ParameterizedMemoryTest, HundredThousandCallsStayBounded) {
  Compiler compiler;
  auto q = compiler.CompileParameterized(
      "{e, b | exists s (EMP(e, d, s) and BONUS(e, b) and cap <= b)}",
      {"d", "cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Database db = MakePayrollInstance(200, 8, 3);
  auto call = [&](int i) {
    auto answer = q->Run(db, {Value::Int(i % 8), Value::Int((i % 10) * 500)});
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  };
  for (int i = 0; i < 2000; ++i) call(i);

  const Arena& arena = compiler.ctx().arena();
  const size_t arena_before = arena.bytes_allocated();
  const size_t rss_before = VmRssKiB();
  ASSERT_GT(rss_before, 0u);
  for (int i = 0; i < 100'000; ++i) call(i);
  EXPECT_EQ(arena.bytes_allocated(), arena_before);
  if (kAddressSanitizer) return;
  const size_t rss_after = VmRssKiB();
  // The substitution path grew the arena by about 2 KB per call, i.e.
  // ~200 MB over this loop.
  EXPECT_LT(rss_after, rss_before + 4 * 1024)
      << "RSS grew from " << rss_before << " KiB to " << rss_after << " KiB";
}

// A parameterized query carries its slots through the whole pipeline: the
// cached plan prints them, a lowering failure surfaces at run time, and an
// execution with the wrong argument count is refused before it runs.
TEST(ParameterizedPlanTest, CachedPlanHoldsParameterSlots) {
  Compiler compiler;
  auto q = compiler.CompileParameterized("{y | succ(p) = y}", {"p"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->PlanString().find("succ($1)"), std::string::npos)
      << q->PlanString();
  Database db;
  EXPECT_FALSE(q->Run(db, {}).ok());
  auto answer = q->Run(db, {Value::Int(41)});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->Contains({Value::Int(42)}));

  auto unknown = compiler.CompileParameterized("{y | nosuchfn(p) = y}", {"p"});
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  auto failed = unknown->Run(db, {Value::Int(1)});
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("nosuchfn"), std::string::npos)
      << failed.status().ToString();
}

}  // namespace
}  // namespace emcalc
