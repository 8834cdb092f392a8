// Concurrent queries over one shared Database: several host threads run
// one CompiledQuery, or one ParameterizedQuery with a different argument
// binding per thread, through every entry point at once (Run,
// RunWithProfile, ExplainAnalyze), starting on base relations that are
// still unsorted, so their first reads race to normalize them. Every
// answer must equal a single-threaded run's, and every run must land in
// the query log and the history store. The CI ThreadSanitizer leg runs
// this binary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/obs/history.h"
#include "src/obs/inspect.h"
#include "src/obs/query_log.h"

namespace emcalc {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 3;
const char kQ6[] = "{x, y, z | R(x, y, z) and not S(y, z)}";

Database Q6Instance() { return MakeQ6Instance(20000, 5000, 40, 7); }

// Entry point `e` (0 = Run, 1 = RunWithProfile, 2 = ExplainAnalyze) of
// thread `t` over `db`; false when its answer is wrong.
using EntryPoint = std::function<bool(int t, int e, const Database& db)>;

// Runs every entry point from kThreads threads that start together, each
// thread starting on a different one, for kRounds rounds over a fresh,
// still-unsorted `instance()`, with a fresh query log and history store
// installed. Expects every answer right and one untorn run record per
// execution in both sinks, and returns the logged run records.
std::vector<obs::RunRecord> RunConcurrently(
    const std::function<Database()>& instance, const EntryPoint& run) {
  const std::string dir = ::testing::TempDir() + "emcalc_concurrency_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto store = obs::HistoryStore::Open(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return {};
  std::ostringstream log_buffer;
  obs::QueryLog log(&log_buffer);
  obs::HistoryStore* saved_store = obs::GetHistoryStore();
  obs::QueryLog* saved_log = obs::GetQueryLog();
  obs::SetHistoryStore(store->get());
  obs::SetQueryLog(&log);

  std::atomic<int> mismatches{0};
  for (int round = 0; round < kRounds; ++round) {
    const Database db = instance();
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        // Each thread starts on a different entry point, so the first
        // (normalizing) reads come from all three.
        for (int i = 0; i < 3; ++i) {
          if (!run(t, (t + i) % 3, db)) ++mismatches;
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  obs::SetQueryLog(saved_log);
  obs::SetHistoryStore(saved_store);

  EXPECT_EQ(mismatches.load(), 0);
  // One run record per execution in each sink, none torn (reference runs
  // happen before the sinks are installed).
  const size_t runs = static_cast<size_t>(kRounds * kThreads * 3);
  obs::QueryLogScan scan = obs::ParseQueryLogText(log_buffer.str());
  EXPECT_EQ(scan.bad_lines, 0u);
  EXPECT_EQ(scan.runs.size(), runs);
  for (const obs::RunRecord& r : scan.runs) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ((*store)->total_runs(), runs);
  store->reset();
  std::filesystem::remove_all(dir);
  return scan.runs;
}

TEST(ConcurrencyTest, SharedDatabaseAnswersMatchSingleThreaded) {
  Compiler compiler;
  auto q = compiler.Compile(kQ6);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // The reference answer comes from its own copy of the instance, so the
  // shared databases are still unsorted when the threads start.
  Database reference_db = Q6Instance();
  auto expected = q->Run(reference_db);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->size(), 0u);
  const std::string expected_rows =
      "answer rows: " + std::to_string(expected->size()) + "\n";

  std::vector<obs::RunRecord> runs = RunConcurrently(
      Q6Instance, [&](int /*t*/, int e, const Database& db) {
        if (e == 0) {
          auto answer = q->Run(db);
          return answer.ok() && *answer == *expected;
        }
        if (e == 1) {
          ExecProfile profile;
          auto answer = q->RunWithProfile(db, &profile);
          return answer.ok() && *answer == *expected;
        }
        auto report = q->ExplainAnalyze(db);
        return report.ok() && report->find(expected_rows) != std::string::npos;
      });
  for (const obs::RunRecord& r : runs) {
    EXPECT_EQ(r.rows_out, expected->size());
  }
}

// The parameterized counterpart: one plan with parameter slots, shared by
// four threads that each bind their own department and cap.
TEST(ConcurrencyTest, ParameterizedRunsMatchSingleThreaded) {
  Compiler compiler;
  auto q = compiler.CompileParameterized(
      "{e, b | exists s (EMP(e, d, s) and BONUS(e, b) and cap <= b)}",
      {"d", "cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto instance = [] { return MakePayrollInstance(20000, 8, 11); };
  std::vector<std::vector<Value>> args;
  std::vector<Relation> expected;
  Database reference_db = instance();
  for (int t = 0; t < kThreads; ++t) {
    args.push_back({Value::Int(t * 2), Value::Int(t * 500)});
    auto answer = q->Run(reference_db, args.back());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_GT(answer->size(), 0u);
    expected.push_back(std::move(answer).value());
  }

  RunConcurrently(instance, [&](int t, int e, const Database& db) {
    const std::vector<Value>& bound = args[static_cast<size_t>(t)];
    const Relation& want = expected[static_cast<size_t>(t)];
    if (e == 0) {
      auto answer = q->Run(db, bound);
      return answer.ok() && *answer == want;
    }
    if (e == 1) {
      ExecProfile profile;
      auto answer = q->RunWithProfile(db, bound, &profile);
      return answer.ok() && *answer == want;
    }
    auto report = q->ExplainAnalyze(db, bound);
    const std::string rows =
        "answer rows: " + std::to_string(want.size()) + "\n";
    const std::string line = "args: $1=" + bound[0].ToString() +
                             ", $2=" + bound[1].ToString() + "\n";
    return report.ok() && report->find(rows) != std::string::npos &&
           report->find(line) != std::string::npos;
  });
}

}  // namespace
}  // namespace emcalc
