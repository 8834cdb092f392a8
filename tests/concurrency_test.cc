// Concurrent queries over one shared Database: several host threads run
// one CompiledQuery through every entry point at once (Run,
// RunWithProfile, ExplainAnalyze), starting on base relations that are
// still unsorted, so their first reads race to normalize them. Every
// answer must equal a single-threaded run's, and every run must land in
// the query log and the history store. The CI ThreadSanitizer leg runs
// this binary; ParameterizedQuery is left out because its Run plans into
// the compiler's arena (not thread-safe, see src/core/compiler.h).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
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

TEST(ConcurrencyTest, SharedDatabaseAnswersMatchSingleThreaded) {
  Compiler compiler;
  auto q = compiler.Compile(kQ6);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // The reference answer comes from its own copy of the instance, so the
  // shared databases below are still unsorted when the threads start.
  Database reference_db = Q6Instance();
  auto expected = q->Run(reference_db);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->size(), 0u);
  const std::string expected_rows =
      "answer rows: " + std::to_string(expected->size()) + "\n";

  const std::string dir = ::testing::TempDir() + "emcalc_concurrency_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto store = obs::HistoryStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::ostringstream log_buffer;
  obs::QueryLog log(&log_buffer);
  obs::HistoryStore* saved_store = obs::GetHistoryStore();
  obs::QueryLog* saved_log = obs::GetQueryLog();
  obs::SetHistoryStore(store->get());
  obs::SetQueryLog(&log);

  std::atomic<int> mismatches{0};
  for (int round = 0; round < kRounds; ++round) {
    const Database db = Q6Instance();
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
          switch ((t + i) % 3) {
            case 0: {
              auto answer = q->Run(db);
              if (!answer.ok() || !(*answer == *expected)) ++mismatches;
              break;
            }
            case 1: {
              ExecProfile profile;
              auto answer = q->RunWithProfile(db, &profile);
              if (!answer.ok() || !(*answer == *expected)) ++mismatches;
              break;
            }
            default: {
              auto report = q->ExplainAnalyze(db);
              if (!report.ok() ||
                  report->find(expected_rows) == std::string::npos) {
                ++mismatches;
              }
              break;
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  obs::SetQueryLog(saved_log);
  obs::SetHistoryStore(saved_store);

  EXPECT_EQ(mismatches.load(), 0);
  // One run record per execution in each sink, none torn (the reference
  // run happened before the sinks were installed).
  const size_t runs = static_cast<size_t>(kRounds * kThreads * 3);
  obs::QueryLogScan scan = obs::ParseQueryLogText(log_buffer.str());
  EXPECT_EQ(scan.bad_lines, 0u);
  EXPECT_EQ(scan.runs.size(), runs);
  for (const obs::RunRecord& r : scan.runs) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.rows_out, expected->size());
  }
  EXPECT_EQ((*store)->total_runs(), runs);
  store->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace emcalc
