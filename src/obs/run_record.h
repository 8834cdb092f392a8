// The run record: what was observed about one execution, built once per
// run (BuildRunRecord, src/exec/feedback.h) and handed unchanged to every
// sink — the query log, the history store and postmortem bundles — with
// one encoder and one parser for all three. Plain data, so this layer
// stays below src/exec. Schema: docs/observability.md, "Run record".
#ifndef EMCALC_OBS_RUN_RECORD_H_
#define EMCALC_OBS_RUN_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace emcalc::obs {

struct RunRecord {
  uint64_t query_hash = 0;        // HashQueryText of the source text
  std::string query;              // source text (may be empty)
  bool ok = true;
  std::string error;              // status string when !ok
  std::string aborted_limit;      // tripped governor limit; "" if none
  uint64_t wall_ns = 0;
  uint64_t rows_out = 0;          // answer rows; 0 when the run failed
  uint64_t exec_threads = 0;      // effective worker-thread cap
  uint64_t peak_bytes = 0;        // query-level tracked-bytes high-water
  uint64_t bytes_allocated = 0;   // cumulative tracked allocation
  uint64_t string_pool_size = 0;  // interned values when the run ended
  // busy/(wall*workers) over parallel regions and the widest region; both
  // 0 when nothing ran in parallel.
  double parallel_efficiency = 0;
  uint64_t par_workers = 0;
  // Worst estimate-vs-actual factor and its operator; 0 when no operator
  // had an estimate.
  double misestimate_factor = 0;
  std::string misestimate_op;
  uint64_t est_history_ops = 0;  // estimates taken from the history store
  // Per-operator estimate vs actual, keyed on the stable operator path
  // (PlanOpPaths in src/exec/feedback.h).
  struct Op {
    std::string path;  // "HashJoin/0:Scan"
    std::string op;    // display name, "HashJoin(keys=1)"
    double est_rows = -1;
    uint64_t actual_rows = 0;
    double factor = 1;  // MisestimateFactor(est_rows, actual_rows)
  };
  std::vector<Op> ops;
};

// Appends the record's JSON object members to `out`, comma-separated and
// without braces, so each sink wraps them with its own leading members.
void AppendRunRecordJson(const RunRecord& record, std::string& out);

// The inverse of AppendRunRecordJson over any JSON object carrying the
// record's members (others are ignored). Also reads history v1 run lines,
// which spelled three members "hash", "aborted" and "par_eff".
RunRecord RunRecordFromJson(const JsonValue& object);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_RUN_RECORD_H_
