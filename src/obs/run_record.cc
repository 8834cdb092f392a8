#include "src/obs/run_record.h"

#include <cstdlib>
#include <string_view>
#include <utility>

namespace emcalc::obs {

namespace {

// `,"key":<literal>`; string values arrive already quoted.
void AppendMember(std::string_view key, const std::string& literal,
                  std::string& out) {
  out += ",\"";
  out += key;
  out += "\":" + literal;
}

std::string Quoted(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

}  // namespace

void AppendRunRecordJson(const RunRecord& r, std::string& out) {
  // The hash is a full 64-bit value; a JSON number (double) would lose the
  // low bits, so it travels as a decimal string.
  out += "\"query_hash\":\"" + std::to_string(r.query_hash) + "\"";
  if (!r.query.empty()) AppendMember("query", Quoted(r.query), out);
  out += ",\"ok\":";
  out += r.ok ? "true" : "false";
  if (!r.error.empty()) AppendMember("error", Quoted(r.error), out);
  if (!r.aborted_limit.empty()) {
    AppendMember("aborted_limit", Quoted(r.aborted_limit), out);
  }
  AppendMember("wall_ns", std::to_string(r.wall_ns), out);
  AppendMember("rows_out", std::to_string(r.rows_out), out);
  AppendMember("exec_threads", std::to_string(r.exec_threads), out);
  AppendMember("peak_bytes", std::to_string(r.peak_bytes), out);
  AppendMember("bytes_allocated", std::to_string(r.bytes_allocated), out);
  AppendMember("string_pool_size", std::to_string(r.string_pool_size), out);
  if (r.misestimate_factor > 0) {
    AppendMember("misestimate_factor", JsonNumber(r.misestimate_factor), out);
    AppendMember("misestimate_op", Quoted(r.misestimate_op), out);
  }
  if (r.est_history_ops > 0) {
    AppendMember("est_history_ops", std::to_string(r.est_history_ops), out);
  }
  if (r.par_workers > 0) {
    AppendMember("parallel_efficiency", JsonNumber(r.parallel_efficiency),
                 out);
    AppendMember("par_workers", std::to_string(r.par_workers), out);
  }
  if (r.ops.empty()) return;
  out += ",\"ops\":[";
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const RunRecord::Op& op = r.ops[i];
    if (i > 0) out += ",";
    out += "{\"path\":" + Quoted(op.path);
    AppendMember("op", Quoted(op.op), out);
    AppendMember("est", JsonNumber(op.est_rows), out);
    AppendMember("actual", std::to_string(op.actual_rows), out);
    AppendMember("factor", JsonNumber(op.factor), out);
    out += "}";
  }
  out += "]";
}

RunRecord RunRecordFromJson(const JsonValue& v) {
  RunRecord r;
  // History v1 run lines spelled three members differently; the second
  // lookup of each pair reads them.
  r.query_hash = std::strtoull(
      v.StringOr("query_hash", v.StringOr("hash", "0")).c_str(), nullptr, 10);
  r.query = v.StringOr("query", "");
  r.ok = v.BoolOr("ok", true);
  r.error = v.StringOr("error", "");
  r.aborted_limit = v.StringOr("aborted_limit", v.StringOr("aborted", ""));
  r.wall_ns = static_cast<uint64_t>(v.NumberOr("wall_ns", 0));
  r.rows_out = static_cast<uint64_t>(v.NumberOr("rows_out", 0));
  r.exec_threads = static_cast<uint64_t>(v.NumberOr("exec_threads", 0));
  r.peak_bytes = static_cast<uint64_t>(v.NumberOr("peak_bytes", 0));
  r.bytes_allocated = static_cast<uint64_t>(v.NumberOr("bytes_allocated", 0));
  r.string_pool_size =
      static_cast<uint64_t>(v.NumberOr("string_pool_size", 0));
  r.parallel_efficiency =
      v.NumberOr("parallel_efficiency", v.NumberOr("par_eff", 0));
  r.par_workers = static_cast<uint64_t>(v.NumberOr("par_workers", 0));
  r.misestimate_factor = v.NumberOr("misestimate_factor", 0);
  r.misestimate_op = v.StringOr("misestimate_op", "");
  r.est_history_ops = static_cast<uint64_t>(v.NumberOr("est_history_ops", 0));
  if (const JsonValue* ops = v.Find("ops"); ops != nullptr && ops->is_array()) {
    r.ops.reserve(ops->array.size());
    for (const JsonValue& o : ops->array) {
      if (!o.is_object()) continue;
      RunRecord::Op op;
      op.path = o.StringOr("path", "");
      op.op = o.StringOr("op", "");
      op.est_rows = o.NumberOr("est", -1);
      op.actual_rows = static_cast<uint64_t>(o.NumberOr("actual", 0));
      op.factor = o.NumberOr("factor", 1);
      r.ops.push_back(std::move(op));
    }
  }
  return r;
}

}  // namespace emcalc::obs
