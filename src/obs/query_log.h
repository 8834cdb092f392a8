// Structured per-query logging: one JSON object per line (JSON Lines).
//
// The compiler emits a "compile" record per Compile/CompileParameterized
// call (safety verdict, ||phi|| level proxy, FinD count, RANF size, plan
// node count, per-phase durations, error status) and a "run" line per
// execution carrying its RunRecord (src/obs/run_record.h). Records share
// the query text hash so compile and run lines join.
//
// A process-global sink is installed with SetQueryLog (or EMCALC_QUERY_LOG
// via InitQueryLogFromEnv); with none installed, logging is a single
// atomic load per query.
#ifndef EMCALC_OBS_QUERY_LOG_H_
#define EMCALC_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/diag/diagnostic.h"
#include "src/obs/json.h"
#include "src/obs/run_record.h"

namespace emcalc::obs {

// One "compile" query-log line. "run" lines carry the execution's
// RunRecord (src/obs/run_record.h) instead.
struct QueryLogRecord {
  uint64_t query_hash = 0;
  std::string query;      // raw query text (may be empty if unavailable)
  bool ok = true;
  std::string error;      // status string when !ok
  bool em_allowed = false;
  int level = 0;          // function-application count (||phi|| proxy)
  int find_count = 0;     // |bd(body)| after the safety check
  int ranf_size = 0;      // formula nodes in the RANF form
  int plan_nodes = 0;     // nodes in the optimized plan
  uint64_t wall_ns = 0;   // total compile wall time
  // Interned values in the process StringPool when the record was emitted:
  // tracks intern-pool growth across a workload.
  uint64_t string_pool_size = 0;
  std::vector<std::pair<std::string, uint64_t>> phase_ns;  // per-phase
  // Front-end diagnostics (lint findings and, on rejection, the safety
  // blame trace). Populated when the compiler runs with EMCALC_LINT=1; see
  // docs/diagnostics.md for the JSON schema.
  std::vector<diag::Diagnostic> diagnostics;
};

// FNV-1a of the query text; stable across processes.
uint64_t HashQueryText(std::string_view text);

// One line, no trailing newline: {"event":"compile",...}.
std::string QueryLogRecordToJson(const QueryLogRecord& record);

// One line, no trailing newline: {"event":"run", <run record members>}.
std::string RunLogLineJson(const RunRecord& run);

// Inverse of QueryLogRecordToJson over a parsed line (unknown fields are
// ignored). ParseQueryLogText (src/obs/inspect.h) splits a whole log into
// compile and run records.
QueryLogRecord QueryLogRecordFromJson(const JsonValue& object);

// A thread-safe JSON-Lines sink.
//
// File mode (Open) buffers lines and flushes on error/abort records, when
// the buffer fills, on Flush(), and at destruction — so a clipped query's
// record is on disk even if the process dies right after. When a rotation
// cap is set (EMCALC_QUERY_LOG_MAX_BYTES, or SetRotationMaxBytes), a file
// that reaches the cap is renamed to `<path>.1` (replacing any previous
// rotation) and a fresh file is started.
//
// Stream mode (borrowed ostream; tests) writes through immediately.
class QueryLog {
 public:
  // Borrow an existing stream (tests); must outlive the log.
  explicit QueryLog(std::ostream* sink) : sink_(sink) {}

  // Appends to `path`. Applies EMCALC_QUERY_LOG_MAX_BYTES when set.
  static StatusOr<std::unique_ptr<QueryLog>> Open(const std::string& path);

  ~QueryLog();

  void Write(const QueryLogRecord& record);
  void Write(const RunRecord& run);

  // Forces buffered lines to disk (file mode; no-op in stream mode).
  void Flush();

  // Best-effort flush for signal handlers: skips if the lock is held,
  // writes with write(2) only. Returns true when the buffer was drained.
  bool TrySignalFlush();

  // 0 disables rotation.
  void SetRotationMaxBytes(uint64_t bytes);
  uint64_t rotations() const;

 private:
  QueryLog() = default;
  // Buffers one line; `urgent` lines (errors, aborts) flush at once.
  void Append(std::string line, bool urgent);
  void FlushLocked();
  void MaybeRotateLocked();

  mutable std::mutex mu_;
  std::ostream* sink_ = nullptr;  // stream mode only
  int fd_ = -1;                   // file mode only
  std::string path_;
  std::string buf_;
  uint64_t file_bytes_ = 0;
  uint64_t max_bytes_ = 0;
  uint64_t rotations_ = 0;
};

// The process-global query log; null (disabled) by default. Borrowed, not
// owned.
QueryLog* GetQueryLog();
void SetQueryLog(QueryLog* log);

// EMCALC_QUERY_LOG=<path>: installs a process-lifetime query log appending
// to <path>. Returns true when enabled. Idempotent.
bool InitQueryLogFromEnv();

// Async-signal-safe best-effort flush of the global query log (if any).
// Called from the fatal-signal postmortem path.
void QueryLogSignalFlush();

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_QUERY_LOG_H_
