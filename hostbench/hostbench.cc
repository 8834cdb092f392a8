// hostbench: the emcalc host-path benchmark.
//
// One client thread drives the public library API the way a host program
// does -- Database::Insert, then Compiler::Compile / CompileParameterized,
// then CompiledQuery::Run / ParameterizedQuery::Run -- in a closed loop,
// checks every answer, and prints end-to-end metrics. With --trace 1 it
// additionally drives the same operations layer by layer through the
// public per-layer calls (ParseQuery, EmAllowedChecker, TranslateQuery,
// OptimizePlan, Lower, ParameterizedQuery::PlanFor, PhysicalPlan::Execute),
// records in-memory spans around each call, and prints per-layer self
// times and counts. Nothing inside the library is instrumented for this:
// every layer figure is timed by the caller or read from what the public
// calls return (ExecProfile, Translation, the metrics registry).
//
// Usage:
//   hostbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// See README.md next to this file for the workloads and the metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/algebra/eval.h"
#include "src/algebra/optimizer.h"
#include "src/base/thread_pool.h"
#include "src/calculus/parser.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"
#include "src/obs/metrics.h"
#include "src/safety/em_allowed.h"
#include "src/translate/pipeline.h"

namespace emcalc::hostbench {
namespace {

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "hostbench: %s\n", msg.c_str());
  std::exit(1);
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Mean over the groups of a sample stream of each group's q-quantile; group
// g is [ends[g-1], ends[g]), the first starting at 0. The whole stream's
// quantile when there is no group.
double MeanOfGroupQuantiles(const std::vector<double>& v,
                            const std::vector<size_t>& ends, double q) {
  if (ends.empty()) return Quantile(v, q);
  double sum = 0;
  size_t begin = 0;
  for (size_t end : ends) {
    sum += Quantile(std::vector<double>(v.begin() + begin, v.begin() + end),
                    q);
    begin = end;
  }
  return sum / static_cast<double>(ends.size());
}

// A "VmHWM:" / "VmRSS:" line of /proc/self/status, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;
    }
  }
  return 0;
}

// FNV-1a over an answer's normalized cells. Every answer is reduced to this
// hash; answers of one data state must agree across ops, and the oracle's
// answer for the state must hash the same.
uint64_t AnswerHash(const Relation& r) {
  uint64_t h = 1469598103934665603ull ^ static_cast<uint64_t>(r.arity());
  const size_t cells = r.size() * static_cast<size_t>(r.arity());
  const Value* data = r.data();
  for (size_t i = 0; i < cells; ++i) {
    h ^= data[i].raw();
    h *= 1099511628211ull;
  }
  return h ^ r.size();
}

// ---------------------------------------------------------------------------
// Host-side data: rows the client hands to Database::Insert
// ---------------------------------------------------------------------------

struct Table {
  std::string name;
  int arity = 0;
  std::vector<Value> cells;  // row-major
  size_t rows() const {
    return arity == 0 ? 0 : cells.size() / static_cast<size_t>(arity);
  }
};

// Copies relation `name` of a generated instance into a host-side table
// with the rows in a seeded random order, so that Insert never receives
// presorted input (the generators' own insertion order is random too).
Table TableFrom(const Database& db, const std::string& name, uint64_t seed) {
  const Relation* rel = db.Find(name);
  if (rel == nullptr) Die("generator produced no relation " + name);
  Table t{name, rel->arity(), {}};
  const size_t a = static_cast<size_t>(t.arity);
  std::vector<size_t> order(rel->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  const Value* data = rel->data();
  t.cells.reserve(order.size() * a);
  for (size_t r : order) {
    t.cells.insert(t.cells.end(), data + r * a, data + (r + 1) * a);
  }
  return t;
}

// A seeded stream of `rows` integer rows over [0, pool).
Table RandomTable(const std::string& name, int arity, size_t rows, int pool,
                  uint64_t seed) {
  Table t{name, arity, {}};
  std::mt19937_64 rng(seed);
  t.cells.reserve(rows * static_cast<size_t>(arity));
  for (size_t i = 0; i < rows * static_cast<size_t>(arity); ++i) {
    t.cells.push_back(Value::Int(static_cast<int64_t>(rng() % pool)));
  }
  return t;
}

// Hands every row of `t` to Database::Insert, one Tuple per call.
void InsertRows(Database& db, const Table& t) {
  const size_t a = static_cast<size_t>(t.arity);
  for (size_t r = 0; r < t.rows(); ++r) {
    const Value* row = t.cells.data() + r * a;
    if (Status s = db.Insert(t.name, Tuple(row, row + a)); !s.ok()) {
      Die("insert into " + t.name + ": " + s.ToString());
    }
  }
}

size_t TotalRows(const std::vector<Table>& tables) {
  size_t n = 0;
  for (const Table& t : tables) n += t.rows();
  return n;
}

// ---------------------------------------------------------------------------
// Tracing: in-memory spans recorded around public calls
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int parent;  // index within the op, -1 for the op's root span
  };

  // Opens a traced operation of `kind` ("compile", "load", "op", ...).
  void BeginOp(const char* kind) {
    cur_.clear();
    open_ = -1;
    kind_ = kind;
    root_ = Open(kind);
  }

  // Closes the operation and computes each span name's self time (span
  // duration minus the time its child spans cover), summed per name.
  void EndOp() {
    Close(root_);
    std::vector<uint64_t> covered(cur_.size(), 0);
    for (const Span& s : cur_) {
      if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] +=
          s.end_ns - s.start_ns;
    }
    self_ns_.clear();
    for (size_t i = 0; i < cur_.size(); ++i) {
      self_ns_[cur_[i].name] += cur_[i].end_ns - cur_[i].start_ns - covered[i];
    }
    size_t& kept = kept_per_kind_[kind_];
    if (kept < kKeepOpsPerKind) {
      ++kept;
      for (const Span& s : cur_) kept_.push_back({next_op_, kind_, s});
    }
    ++next_op_;
  }

  int Open(const char* name) {
    cur_.push_back({name, NowNs(), 0, open_});
    open_ = static_cast<int>(cur_.size()) - 1;
    return open_;
  }
  void Close(int index) {
    Span& s = cur_[static_cast<size_t>(index)];
    s.end_ns = NowNs();
    open_ = s.parent;
  }

  // Per-name self time of the last finished op.
  const std::map<std::string, uint64_t>& op_self_ns() const {
    return self_ns_;
  }
  // Duration of the last finished op's root span.
  uint64_t op_ns() const {
    return cur_.empty() ? 0 : cur_[0].end_ns - cur_[0].start_ns;
  }

  // Writes the kept spans as JSON Lines.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Kept& k : kept_) {
      std::fprintf(f,
                   "{\"op\":%llu,\"kind\":\"%s\",\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%d}\n",
                   static_cast<unsigned long long>(k.op), k.kind, k.span.name,
                   static_cast<unsigned long long>(k.span.start_ns),
                   static_cast<unsigned long long>(k.span.end_ns),
                   k.span.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  // Spans of the first ops of each kind are kept for the trace file; every
  // op still feeds the per-layer samples.
  static constexpr size_t kKeepOpsPerKind = 500;
  struct Kept {
    uint64_t op;
    const char* kind;
    Span span;
  };

  std::vector<Span> cur_;
  int open_ = -1;
  int root_ = -1;
  const char* kind_ = "";
  uint64_t next_op_ = 0;
  std::map<std::string, uint64_t> self_ns_;
  std::map<std::string, size_t> kept_per_kind_;
  std::vector<Kept> kept_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Open(name)) {}
  ~Scope() { tracer_.Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kQ6Antijoin, kProjectSort, kParamCalls, kIngestQuery };

// param_calls: departments of the payroll instance; one op calls both
// parameterized queries once per department.
constexpr size_t kDepartments = 8;

constexpr const char* kQ6 = "{x, y, z | R(x, y, z) and not S(y, z)}";
constexpr const char* kProjPlus =
    "{x, w | exists y, z (R(x, y, z) and w = plus(y, z))}";
constexpr const char* kProjFilter =
    "{y, z | exists x (R(x, y, z) and x < 1000)}";
constexpr const char* kPayJoin =
    "{e, b | exists s (EMP(e, d, s) and BONUS(e, b) and cap <= b)}";
constexpr const char* kPayJoinGrounded =
    "{e, b | exists s (EMP(e, %lld, s) and BONUS(e, b) and %lld <= b)}";
constexpr const char* kDeptLookup = "{b | DEPT(d, b)}";
constexpr const char* kDeptLookupGrounded = "{b | DEPT(%lld, b)}";

// One query of a workload's operation list.
struct QueryDef {
  const char* text;
  std::vector<std::string> params;  // empty: compiled once with Compile
  const char* grounded = nullptr;   // params substituted (%lld each)
};

// A query text of the compile measurement.
struct CompileText {
  const char* text;
  std::vector<std::string> params;
  bool expect_ok;
};

// The paper's corpus (q3 names a discussion and has no text; q7 must be
// rejected as not em-allowed).
const CompileText kCorpus[] = {
    {"{y | exists x (R(x) and y = g(f(x)))}", {}, true},             // q1
    {"{x | R(x) and exists y (f(x) = y and not R(y))}", {}, true},   // q2
    {"{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
     "((h(x) != y and k(x) != y) or P(x, y)))}",
     {},
     true},                                                          // q4
    {"{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}", {}, true},  // q5
    {kQ6, {}, true},                                                 // q6
    {"{x | x = 0 and forall u (exists v (plus(u, 1) = v))}", {}, false},  // q7
};

// Builtins plus the uninterpreted unary functions f, g, h, k the corpus
// uses (deterministic and pure, so they lower like any builtin).
FunctionRegistry BenchFunctions() {
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

struct Spec {
  Kind kind;
  std::vector<QueryDef> queries;     // one op runs each in order
  std::vector<CompileText> compile;  // texts of the compile measurement
  std::vector<Table> base;           // loaded at the start of every block
  std::vector<std::vector<Table>> batches;  // ingest: op i writes batch i
  std::vector<std::pair<int64_t, int64_t>> args;  // param: (d, cap) stream
  size_t block_ops = 0;   // ops between reloads
  size_t warmup_ops = 0;  // ops of the warm-up block
  std::vector<size_t> oracle_states;  // ingest: states checked in full
};

std::optional<Kind> ParseKind(std::string_view name) {
  if (name == "q6_antijoin") return Kind::kQ6Antijoin;
  if (name == "project_sort") return Kind::kProjectSort;
  if (name == "param_calls") return Kind::kParamCalls;
  if (name == "ingest_query") return Kind::kIngestQuery;
  return std::nullopt;
}

Spec MakeSpec(Kind kind, uint64_t seed) {
  Spec spec;
  spec.kind = kind;
  switch (kind) {
    case Kind::kQ6Antijoin: {
      Database gen = MakeQ6Instance(400000, 100000, 2000, seed);
      spec.base = {TableFrom(gen, "R", seed * 31 + 1),
                   TableFrom(gen, "S", seed * 31 + 2)};
      spec.queries = {{kQ6, {}}};
      spec.block_ops = 25;
      spec.warmup_ops = 3;
      break;
    }
    case Kind::kProjectSort: {
      Database gen = MakeQ6Instance(400000, 100000, 2000, seed);
      spec.base = {TableFrom(gen, "R", seed * 31 + 1)};
      spec.queries = {{kProjPlus, {}}, {kProjFilter, {}}};
      spec.block_ops = 16;
      spec.warmup_ops = 2;
      break;
    }
    case Kind::kParamCalls: {
      Database gen = MakePayrollInstance(200, kDepartments, seed);
      spec.base = {TableFrom(gen, "EMP", seed * 31 + 1),
                   TableFrom(gen, "DEPT", seed * 31 + 2),
                   TableFrom(gen, "BONUS", seed * 31 + 3)};
      spec.queries = {{kPayJoin, {"d", "cap"}, kPayJoinGrounded},
                      {kDeptLookup, {"d"}, kDeptLookupGrounded}};
      // Groups of kDepartments (d, cap) pairs, each group a seeded
      // permutation of the departments with seeded caps.
      std::mt19937_64 rng(seed * 31 + 4);
      std::vector<int64_t> depts(kDepartments);
      std::iota(depts.begin(), depts.end(), int64_t{0});
      for (int g = 0; g < 512; ++g) {
        std::shuffle(depts.begin(), depts.end(), rng);
        for (int64_t d : depts) {
          spec.args.emplace_back(d, static_cast<int64_t>(rng() % 10) * 500);
        }
      }
      spec.block_ops = 250;
      spec.warmup_ops = 50;
      break;
    }
    case Kind::kIngestQuery: {
      Database gen = MakeQ6Instance(200000, 50000, 2000, seed);
      spec.base = {TableFrom(gen, "R", seed * 31 + 1),
                   TableFrom(gen, "S", seed * 31 + 2)};
      spec.queries = {{kQ6, {}}, {kProjFilter, {}}};
      spec.block_ops = 20;
      spec.warmup_ops = 2;
      for (size_t b = 0; b < spec.block_ops; ++b) {
        const uint64_t s = seed * 1009 + b * 2 + 7;
        spec.batches.push_back({RandomTable("R", 3, 2000, 2000, s),
                                RandomTable("S", 2, 500, 2000, s + 1)});
      }
      // A seeded sample of the data states (state i = after batch i) is
      // checked in full against the oracle; every state is checked for
      // agreement across blocks.
      std::vector<size_t> states(spec.block_ops);
      std::iota(states.begin(), states.end(), size_t{0});
      std::mt19937_64 rng(seed * 31 + 5);
      std::shuffle(states.begin(), states.end(), rng);
      spec.oracle_states.assign(states.begin(), states.begin() + 3);
      break;
    }
  }
  for (const QueryDef& q : spec.queries) {
    spec.compile.push_back({q.text, q.params, true});
  }
  if (kind == Kind::kParamCalls) {
    for (const CompileText& c : kCorpus) spec.compile.push_back(c);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------------

// Compiled handles of one client: the compiler and its queries, plus (for
// the traced path) the caller's own lowering of each compiled plan.
struct Client {
  std::unique_ptr<Compiler> compiler;
  std::vector<std::optional<CompiledQuery>> compiled;
  std::vector<std::optional<ParameterizedQuery>> param;
  std::vector<std::unique_ptr<PhysicalPlan>> plans;
};

// One query call of an op: the query's index in the operation list and,
// for parameterized queries, its arguments (d, cap; unused ones are 0).
struct Call {
  size_t query;
  std::pair<int64_t, int64_t> args;
};

// Everything one op produced.
struct OpOut {
  std::vector<Call> calls;
  uint64_t op_ns = 0;     // the whole op
  uint64_t query_ns = 0;  // the op's queries (the op minus its write)
  bool ok = true;
  std::string error;
  std::vector<Relation> answers;  // one per call
  // Traced path only.
  std::vector<ExecProfile> profiles;
  std::vector<uint64_t> execute_ns;
};

// Aggregates over one closed loop.
struct LoopStats {
  std::vector<double> latency_us;  // warm ops (ingest: every op)
  std::vector<double> cold_us;     // queries of the first op after a load
                                   // or write
  std::vector<double> query_us;    // every op's query part
  std::vector<double> setup_s;
  std::vector<double> compile_us;  // spread evenly over the loop
  // Where each complete block's samples end in latency_us and cold_us.
  std::vector<size_t> block_latency_ends;
  std::vector<size_t> block_cold_ends;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double busy_s = 0;
  double rss_warm_mb = 0;
  double rss_end_mb = 0;
  uint64_t arena_bytes = 0;  // compiler arena growth across Run calls
  uint64_t calls = 0;        // Run calls
};

// Per-layer samples of the traced run, keyed by metric name.
using Samples = std::map<std::string, std::vector<double>>;

// Thread-pool counters from the metrics registry, read around traced ops.
struct PoolReading {
  uint64_t regions = 0;
  uint64_t busy_ns = 0;
  uint64_t wall_ns = 0;
  obs::Histogram::Snapshot waits;
};

class Bench {
 public:
  Bench(Spec spec, uint64_t seed)
      : spec_(std::move(spec)), seed_(seed), functions_(BenchFunctions()) {}

  // Times one Compile/CompileParameterized of the next workload text.
  double CompileOnce();
  std::vector<double> TraceCompile(Samples& layers);
  LoopStats Loop(double seconds, bool traced, Samples* layers);
  // Oracle checks outside every timed region; returns wrong answers.
  uint64_t VerifyAgainstOracle(std::vector<std::string>& notes);
  uint64_t ScaledCalculusChecks(std::vector<std::string>& notes,
                                uint64_t* attempted);
  const Tracer& tracer() const { return tracer_; }
  // Compiles attempted, and those whose outcome (accepted or rejected)
  // differed from the expected one.
  uint64_t compile_attempts() const { return compile_attempts_; }
  uint64_t compile_failures() const { return compile_failures_; }
  // pool.efficiency and pool.queue_wait_us_p50 over all traced ops.
  void FoldPool(Samples& layers) const;

 private:
  // One answer's identity: (data state, query, d, cap). Ingest state i is
  // the data after batch i; the other workloads have one state, 0.
  using CheckKey = std::tuple<size_t, size_t, int64_t, int64_t>;
  struct Check {
    uint64_t hash = 0;  // AnswerHash of the first answer seen
    uint64_t ops = 0;   // answers recorded under this key
  };

  bool parameterized() const { return spec_.kind == Kind::kParamCalls; }
  bool ingest() const { return spec_.kind == Kind::kIngestQuery; }

  std::unique_ptr<Client> NewClient(bool lower_plans);
  std::vector<Value> ArgsFor(const Call& call) const {
    if (spec_.queries[call.query].params.size() == 2) {
      return {Value::Int(call.args.first), Value::Int(call.args.second)};
    }
    return {Value::Int(call.args.first)};
  }
  // The calls of the op at stream position `pos`.
  std::vector<Call> CallsAt(size_t pos) const;
  Database Load() const;
  OpOut RunOp(Client& c, Database& db, size_t i, std::vector<Call> calls);
  OpOut TraceOp(Client& c, Database& db, size_t i, std::vector<Call> calls);
  // Records an op's answers; false if any disagrees with an earlier answer
  // for the same data state.
  bool RecordAnswers(const OpOut& out, size_t i);
  uint64_t FirstTouchUs(const Database& db);
  void CountCompile(bool as_expected, const char* text) {
    ++compile_attempts_;
    if (!as_expected) {
      ++compile_failures_;
      std::fprintf(stderr, "hostbench: unexpected compile outcome: %s\n", text);
    }
  }
  void FoldProfiles(const OpOut& out, bool cold, Samples& layers);
  // Per-layer samples of one traced op (op `i` of its block).
  void FoldTracedOp(const OpOut& out, bool cold, size_t i,
                    const PoolReading& before, Samples& layers);

  Spec spec_;
  uint64_t seed_;
  FunctionRegistry functions_;
  std::map<CheckKey, Check> checks_;
  Tracer tracer_;
  // Thread-pool deltas summed over traced ops: busy time, region wall time
  // times the pool's parallelism, and queue-wait histogram buckets.
  double pool_busy_ns_ = 0;
  double pool_capacity_ns_ = 0;
  std::vector<uint64_t> pool_wait_counts_;
  size_t stream_pos_ = 0;
  std::unique_ptr<Client> last_client_;  // kept for the oracle checks
  std::unique_ptr<Compiler> compile_compiler_;
  size_t compile_next_ = 0;
  uint64_t compile_attempts_ = 0;
  uint64_t compile_failures_ = 0;
};

std::unique_ptr<Client> Bench::NewClient(bool lower_plans) {
  auto c = std::make_unique<Client>();
  c->compiler = std::make_unique<Compiler>(functions_);
  for (const QueryDef& q : spec_.queries) {
    if (q.params.empty()) {
      auto cq = c->compiler->Compile(q.text);
      if (!cq.ok()) Die(std::string("compile ") + q.text + ": " +
                        cq.status().ToString());
      if (lower_plans) {
        auto plan = Lower(c->compiler->ctx(), cq->plan(),
                          c->compiler->functions());
        if (!plan.ok()) Die("lower: " + plan.status().ToString());
        c->plans.push_back(
            std::make_unique<PhysicalPlan>(std::move(plan).value()));
      } else {
        c->plans.push_back(nullptr);
      }
      c->compiled.emplace_back(std::move(cq).value());
      c->param.emplace_back();
    } else {
      auto pq = c->compiler->CompileParameterized(q.text, q.params);
      if (!pq.ok()) Die(std::string("compile ") + q.text + ": " +
                        pq.status().ToString());
      c->param.emplace_back(std::move(pq).value());
      c->compiled.emplace_back();
      c->plans.push_back(nullptr);
    }
  }
  return c;
}

Database Bench::Load() const {
  Database db;
  for (const Table& t : spec_.base) {
    if (Status s = db.AddRelation(t.name, t.arity); !s.ok()) {
      Die("add relation: " + s.ToString());
    }
    InsertRows(db, t);
  }
  return db;
}

double Bench::CompileOnce() {
  // Round-robin over the workload's texts; each round uses a fresh
  // Compiler, as a host program compiling its query texts at start-up.
  const size_t n = spec_.compile.size();
  if (compile_next_ % n == 0) {
    compile_compiler_ = std::make_unique<Compiler>(functions_);
  }
  const CompileText& ct = spec_.compile[compile_next_++ % n];
  const uint64_t t0 = NowNs();
  const bool ok =
      ct.params.empty()
          ? compile_compiler_->Compile(ct.text).ok()
          : compile_compiler_->CompileParameterized(ct.text, ct.params).ok();
  const uint64_t t1 = NowNs();
  CountCompile(ok == ct.expect_ok, ct.text);
  return static_cast<double>(t1 - t0) / 1e3;
}

std::vector<double> Bench::TraceCompile(Samples& layers) {
  const size_t rounds = std::max<size_t>(40, 400 / spec_.compile.size());
  std::vector<double> us;
  for (size_t r = 0; r < rounds; ++r) {
    Compiler compiler(functions_);
    AstContext& ctx = compiler.ctx();
    double bd = 0, cover = 0, nodes = 0;
    for (const CompileText& ct : spec_.compile) {
      tracer_.BeginOp("compile");
      bool ok = false;
      std::optional<Translation> translation;
      auto parsed = [&] {
        Scope s(tracer_, "calculus.parse");
        return ParseQuery(ctx, ct.text);
      }();
      if (!parsed.ok()) {
        tracer_.EndOp();
        CountCompile(false, ct.text);
        continue;
      }
      Query q = std::move(parsed).value();
      std::vector<Symbol> param_syms;
      for (const std::string& p : ct.params) {
        param_syms.push_back(ctx.symbols().Intern(p));
      }
      const SymbolSet param_set(param_syms);
      if (!ct.params.empty()) {
        // The parameters are free in the body, not output columns.
        std::erase_if(q.head,
                      [&](Symbol v) { return param_set.Contains(v); });
      }
      {
        Scope s(tracer_, "safety.check");
        EmAllowedChecker checker(ctx);
        SafetyResult safety = checker.CheckFormula(q.body, param_set);
        ok = safety.em_allowed;
        if (ok && !ct.params.empty()) {
          bd += static_cast<double>(checker.bound().computations());
          cover += static_cast<double>(checker.bound().Bound(q.body).size());
        }
      }
      if (ok && ct.params.empty()) {
        auto t = [&] {
          Scope s(tracer_, "translate");
          return TranslateQuery(ctx, q);
        }();
        ok = t.ok();
        if (ok) translation = std::move(t).value();
      }
      if (ok && translation.has_value()) {
        AlgebraFactory factory(ctx);
        const AlgExpr* plan = [&] {
          Scope s(tracer_, "algebra.optimize");
          return OptimizePlan(factory, translation->raw_plan);
        }();
        auto lowered = [&] {
          Scope s(tracer_, "exec.lower");
          return Lower(ctx, plan, compiler.functions());
        }();
        ok = lowered.ok();
      }
      tracer_.EndOp();
      CountCompile(ok == ct.expect_ok, ct.text);
      us.push_back(static_cast<double>(tracer_.op_ns()) / 1e3);
      for (const auto& [name, ns] : tracer_.op_self_ns()) {
        if (name == "compile") continue;
        layers[name + "_us"].push_back(static_cast<double>(ns) / 1e3);
      }
      if (translation.has_value()) {
        const obs::CompilePhase& prof = translation->profile;
        for (const char* phase : {"enf", "ranf", "algebra_gen"}) {
          if (const obs::CompilePhase* p = prof.Find(phase)) {
            layers[std::string("translate.") + phase + "_us"].push_back(
                static_cast<double>(p->wall_ns) / 1e3);
          }
        }
        bd += static_cast<double>(translation->bd_computations);
        cover += static_cast<double>(translation->find_count);
        nodes += translation->plan->NodeCount();
      }
    }
    layers["finds.bd_computations"].push_back(bd);
    layers["finds.cover_size"].push_back(cover);
    layers["translate.plan_nodes"].push_back(nodes);
  }
  return us;
}

std::vector<Call> Bench::CallsAt(size_t pos) const {
  std::vector<Call> calls;
  if (!parameterized()) {
    for (size_t q = 0; q < spec_.queries.size(); ++q) calls.push_back({q, {}});
    return calls;
  }
  // One op visits every department once (seeded order, seeded caps).
  const size_t groups = spec_.args.size() / kDepartments;
  const size_t g = pos % groups;
  for (size_t j = 0; j < kDepartments; ++j) {
    const auto [d, cap] = spec_.args[g * kDepartments + j];
    calls.push_back({0, {d, cap}});
    calls.push_back({1, {d, 0}});
  }
  return calls;
}

OpOut Bench::RunOp(Client& c, Database& db, size_t i,
                   std::vector<Call> calls) {
  OpOut out;
  out.calls = std::move(calls);
  out.answers.reserve(out.calls.size());
  const uint64_t t0 = NowNs();
  if (ingest()) {
    for (const Table& t : spec_.batches[i]) InsertRows(db, t);
  }
  const uint64_t t1 = NowNs();
  for (const Call& call : out.calls) {
    const size_t q = call.query;
    StatusOr<Relation> r = c.compiled[q].has_value()
                               ? c.compiled[q]->Run(db)
                               : c.param[q]->Run(db, ArgsFor(call));
    if (!r.ok()) {
      out.ok = false;
      out.error = r.status().ToString();
      break;
    }
    out.answers.push_back(std::move(r).value());
  }
  const uint64_t t2 = NowNs();
  out.op_ns = t2 - t0;
  out.query_ns = t2 - t1;
  return out;
}

OpOut Bench::TraceOp(Client& c, Database& db, size_t i,
                     std::vector<Call> calls) {
  OpOut out;
  out.calls = std::move(calls);
  out.answers.reserve(out.calls.size());
  out.profiles.resize(out.calls.size());
  tracer_.BeginOp("op");
  const uint64_t t0 = NowNs();
  if (ingest()) {
    Scope s(tracer_, "storage.insert");
    for (const Table& t : spec_.batches[i]) InsertRows(db, t);
  }
  const uint64_t t1 = NowNs();
  for (size_t k = 0; k < out.calls.size() && out.ok; ++k) {
    const size_t q = out.calls[k].query;
    Scope sq(tracer_, "query");
    const PhysicalPlan* plan = c.plans[q].get();
    std::optional<PhysicalPlan> lowered;
    if (c.param[q].has_value()) {
      auto logical = [&] {
        Scope s(tracer_, "core.plan_for");
        return c.param[q]->PlanFor(ArgsFor(out.calls[k]));
      }();
      if (!logical.ok()) {
        out.ok = false;
        out.error = logical.status().ToString();
        break;
      }
      auto physical = [&] {
        Scope s(tracer_, "exec.lower");
        return Lower(c.compiler->ctx(), *logical, c.compiler->functions());
      }();
      if (!physical.ok()) {
        out.ok = false;
        out.error = physical.status().ToString();
        break;
      }
      lowered.emplace(std::move(physical).value());
      plan = &*lowered;
    }
    uint64_t e0 = 0;
    auto result = [&] {
      Scope s(tracer_, "exec.execute");
      e0 = NowNs();
      return plan->Execute(db, &out.profiles[k]);
    }();
    out.execute_ns.push_back(NowNs() - e0);
    if (!result.ok()) {
      out.ok = false;
      out.error = result.status().ToString();
      break;
    }
    // What ExecuteToRelation does after Execute: move an exclusively
    // owned result out, copy a borrowed one.
    Scope s(tracer_, "exec.copy_out");
    if (result->owned != nullptr) {
      out.answers.push_back(std::move(*result->owned));
    } else {
      out.answers.push_back(*result->relation);
    }
  }
  const uint64_t t2 = NowNs();
  tracer_.EndOp();
  out.op_ns = t2 - t0;
  out.query_ns = t2 - t1;
  return out;
}

bool Bench::RecordAnswers(const OpOut& out, size_t i) {
  bool agree = true;
  for (size_t k = 0; k < out.answers.size(); ++k) {
    const Call& call = out.calls[k];
    const CheckKey key{ingest() ? i : 0, call.query, call.args.first,
                       call.args.second};
    const uint64_t h = AnswerHash(out.answers[k]);
    Check& c = checks_.try_emplace(key, Check{h, 0}).first->second;
    if (c.hash != h) agree = false;
    ++c.ops;
  }
  return agree;
}

uint64_t Bench::FirstTouchUs(const Database& db) {
  // The first Relation::size() after a load or write pays any deferred
  // storage work. Touch a copy, so the next query still finds the data as
  // the load or write left it.
  Database copy = db;
  tracer_.BeginOp("first_touch");
  {
    Scope s(tracer_, "storage.first_touch");
    for (const auto& [name, rel] : copy.relations()) (void)rel.size();
  }
  tracer_.EndOp();
  return tracer_.op_ns();
}

// Operator self time: inclusive wall time minus the children's, so a
// shared Materialize stub (no stats) subtracts nothing.
struct ProfileSums {
  std::map<PhysOpKind, uint64_t> self_ns;
  uint64_t rows_out = 0, build_rows = 0, probes = 0, calls = 0, copies = 0;
  uint64_t batch_rows = 0, batch_sel_rows = 0;
};

void SumProfileTree(const ExecProfile& p, ProfileSums& s) {
  if (p.shared_ref) return;
  uint64_t children = 0;
  for (const ExecProfile& c : p.children) {
    if (!c.shared_ref) children += c.stats.wall_ns;
    SumProfileTree(c, s);
  }
  s.self_ns[p.op] +=
      p.stats.wall_ns > children ? p.stats.wall_ns - children : 0;
  if (p.op != PhysOpKind::kMaterialize) s.rows_out += p.stats.rows_out;
  s.build_rows += p.stats.build_rows;
  s.probes += p.stats.hash_probes;
  s.calls += p.stats.function_calls;
  s.copies += p.stats.tuple_copies;
  s.batch_rows += p.stats.batch_rows;
  s.batch_sel_rows += p.stats.batch_sel_rows;
}

void Bench::FoldProfiles(const OpOut& out, bool cold, Samples& layers) {
  ProfileSums sums;
  double answer_rows = 0, peak = 0;
  for (size_t k = 0; k < out.profiles.size() && k < out.answers.size(); ++k) {
    const ExecProfile& p = out.profiles[k];
    SumProfileTree(p, sums);
    answer_rows += static_cast<double>(out.answers[k].size());
    peak = std::max(peak, static_cast<double>(p.total_peak_bytes));
    if (cold && k == 0) {
      // The deferred base-relation work the profile root does not cover.
      const double unattributed =
          static_cast<double>(out.execute_ns[k]) -
          static_cast<double>(p.stats.wall_ns);
      layers["exec.unattributed_us"].push_back(unattributed / 1e3);
    }
  }
  static const std::pair<PhysOpKind, const char*> kOps[] = {
      {PhysOpKind::kScan, "scan"},
      {PhysOpKind::kFilterSelect, "filter_select"},
      {PhysOpKind::kProjectMap, "project_map"},
      {PhysOpKind::kHashJoin, "hash_join"},
      {PhysOpKind::kDiffAnti, "diff_anti"},
      {PhysOpKind::kUnionMerge, "union_merge"},
      {PhysOpKind::kMaterialize, "materialize"},
  };
  for (const auto& [kind, name] : kOps) {
    layers[std::string("exec.self_us.") + name].push_back(
        static_cast<double>(sums.self_ns[kind]) / 1e3);
  }
  layers["exec.rows_out_total"].push_back(static_cast<double>(sums.rows_out));
  layers["exec.useful_row_ratio"].push_back(
      sums.rows_out == 0 ? 0
                         : answer_rows / static_cast<double>(sums.rows_out));
  layers["exec.hash_build_rows"].push_back(
      static_cast<double>(sums.build_rows));
  layers["exec.hash_probes"].push_back(static_cast<double>(sums.probes));
  layers["exec.function_calls"].push_back(static_cast<double>(sums.calls));
  layers["exec.tuple_copies"].push_back(static_cast<double>(sums.copies));
  layers["exec.batch_density"].push_back(
      sums.batch_rows == 0 ? 0
                           : static_cast<double>(sums.batch_sel_rows) /
                                 static_cast<double>(sums.batch_rows));
  layers["exec.peak_query_bytes"].push_back(peak);
}

// Compile samples per untraced loop, taken kCompileBurst at a time.
constexpr size_t kCompileSamples = 400;
constexpr size_t kCompileBurst = 20;

PoolReading ReadPool() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  return {reg.GetCounter("pool.regions").value(),
          reg.GetCounter("pool.busy_ns").value(),
          reg.GetCounter("pool.region_wall_ns").value(),
          reg.GetHistogram("pool.queue_wait_ns").TakeSnapshot()};
}

void Bench::FoldTracedOp(const OpOut& out, bool cold, size_t i,
                         const PoolReading& before, Samples& layers) {
  for (const auto& [name, ns] : tracer_.op_self_ns()) {
    if (name == "op" || name == "query") continue;
    layers[name + "_us"].push_back(static_cast<double>(ns) / 1e3);
  }
  if (ingest()) {
    layers["storage.insert_ns_per_row"].push_back(
        static_cast<double>(tracer_.op_self_ns().at("storage.insert")) /
        static_cast<double>(TotalRows(spec_.batches[i])));
  }
  FoldProfiles(out, cold, layers);
  const PoolReading after = ReadPool();
  const uint64_t busy_ns = after.busy_ns - before.busy_ns;
  layers["pool.regions"].push_back(
      static_cast<double>(after.regions - before.regions));
  layers["pool.busy_us"].push_back(static_cast<double>(busy_ns) / 1e3);
  pool_busy_ns_ += static_cast<double>(busy_ns);
  pool_capacity_ns_ += static_cast<double>(after.wall_ns - before.wall_ns) *
                       static_cast<double>(ThreadPool::HardwareThreads());
  pool_wait_counts_.resize(after.waits.counts.size(), 0);
  for (size_t b = 0; b < after.waits.counts.size(); ++b) {
    pool_wait_counts_[b] += after.waits.counts[b] - before.waits.counts[b];
  }
}

LoopStats Bench::Loop(double seconds, bool traced, Samples* layers) {
  LoopStats st;
  std::unique_ptr<Client> client;
  if (!parameterized()) client = NewClient(/*lower_plans=*/traced);

  // Warm-up block (not measured): first-use costs of the process and
  // the library, then the RSS baseline, taken with one data set loaded as
  // at the end of the loop.
  {
    Database db = Load();
    std::unique_ptr<Client> warm = parameterized() ? NewClient(traced)
                                                   : nullptr;
    Client& c = warm ? *warm : *client;
    for (size_t i = 0; i < spec_.warmup_ops; ++i) {
      std::vector<Call> calls = CallsAt(stream_pos_++);
      const size_t op = i % spec_.block_ops;
      OpOut out = traced ? TraceOp(c, db, op, std::move(calls))
                         : RunOp(c, db, op, std::move(calls));
      if (!out.ok) Die("warm-up op failed: " + out.error);
    }
    st.rss_warm_mb = ProcStatusMb("VmRSS:");
  }

  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t start = NowNs();
  uint64_t paused = 0;
  auto busy = [&] { return NowNs() - start - paused; };
  Database db;
  while (busy() < budget_ns) {
    db = Database();  // release the previous block's data first
    size_t block_done = 0;
    if (traced) tracer_.BeginOp("load");
    const uint64_t l0 = NowNs();
    {
      std::optional<Scope> s;
      if (traced) s.emplace(tracer_, "storage.insert");
      db = Load();
    }
    const uint64_t l1 = NowNs();
    if (traced) {
      tracer_.EndOp();
      (*layers)["storage.insert_ns_per_row"].push_back(
          static_cast<double>(l1 - l0) /
          static_cast<double>(TotalRows(spec_.base)));
    }
    st.setup_s.push_back(static_cast<double>(l1 - l0) / 1e9);
    if (parameterized()) {
      client.reset();
      client = NewClient(traced);
    }
    for (size_t i = 0; i < spec_.block_ops && busy() < budget_ns; ++i) {
      std::vector<Call> calls = CallsAt(stream_pos_++);
      const bool cold = i == 0 || ingest();
      if (traced && cold) {
        const uint64_t p0 = NowNs();
        if (ingest()) {
          // The state right after this op's write, on a shadow copy.
          Database shadow = db;
          for (const Table& t : spec_.batches[i]) InsertRows(shadow, t);
          (*layers)["storage.first_touch_us"].push_back(
              static_cast<double>(FirstTouchUs(shadow)) / 1e3);
        } else {
          (*layers)["storage.first_touch_us"].push_back(
              static_cast<double>(FirstTouchUs(db)) / 1e3);
        }
        paused += NowNs() - p0;
      }
      const PoolReading pool0 = traced ? ReadPool() : PoolReading{};
      const size_t arena0 = client->compiler->ctx().arena().bytes_allocated();
      OpOut out = traced ? TraceOp(*client, db, i, std::move(calls))
                         : RunOp(*client, db, i, std::move(calls));
      const uint64_t p0 = NowNs();
      if (!traced) {
        st.arena_bytes +=
            client->compiler->ctx().arena().bytes_allocated() - arena0;
        st.calls += out.calls.size();
      }
      ++st.ops;
      ++block_done;
      if (!out.ok) {
        ++st.failed;
        std::fprintf(stderr, "hostbench: op failed: %s\n", out.error.c_str());
      } else if (!RecordAnswers(out, i)) {
        ++st.failed;
      }
      const double op_us = static_cast<double>(out.op_ns) / 1e3;
      const double query_us = static_cast<double>(out.query_ns) / 1e3;
      if (cold) st.cold_us.push_back(query_us);
      if (!cold || ingest()) st.latency_us.push_back(op_us);
      st.query_us.push_back(query_us);
      if (traced && out.ok) FoldTracedOp(out, cold, i, pool0, *layers);
      out = OpOut();  // answers are freed outside the op's timing
      paused += NowNs() - p0;
      // Compile samples are taken in bursts spread over the whole loop
      // (outside the busy time), so that they see the same machine
      // conditions as the ops.
      const double due = kCompileSamples * static_cast<double>(busy()) /
                         static_cast<double>(budget_ns);
      if (!traced && static_cast<double>(st.compile_us.size() +
                                         kCompileBurst) <= due) {
        const uint64_t c0 = NowNs();
        for (size_t k = 0; k < kCompileBurst; ++k) {
          st.compile_us.push_back(CompileOnce());
        }
        paused += NowNs() - c0;
      }
    }
    if (block_done == spec_.block_ops) {
      st.block_latency_ends.push_back(st.latency_us.size());
      st.block_cold_ends.push_back(st.cold_us.size());
    }
  }
  st.busy_s = static_cast<double>(busy()) / 1e9;
  st.rss_end_mb = ProcStatusMb("VmRSS:");
  while (!traced && st.compile_us.size() < kCompileSamples) {
    st.compile_us.push_back(CompileOnce());
  }
  last_client_ = std::move(client);
  return st;
}

void Bench::FoldPool(Samples& layers) const {
  layers["pool.efficiency"] = {
      pool_capacity_ns_ == 0 ? 0 : pool_busy_ns_ / pool_capacity_ns_};
  // p50 of the queue waits seen during traced ops, interpolated inside the
  // latency histogram's bucket (bounds in ns).
  const std::vector<double>& bounds = obs::DefaultLatencyBucketsNs();
  uint64_t total = 0;
  for (uint64_t c : pool_wait_counts_) total += c;
  double p50 = 0;
  if (total > 0) {
    const double rank = 0.5 * static_cast<double>(total);
    double cum = 0;
    for (size_t b = 0; b < pool_wait_counts_.size(); ++b) {
      const double n = static_cast<double>(pool_wait_counts_[b]);
      if (n > 0 && cum + n >= rank) {
        const double lo = b == 0 ? 0 : bounds[b - 1];
        const double hi = b < bounds.size() ? bounds[b] : lo * 4;
        p50 = lo + (hi - lo) * (rank - cum) / n;
        break;
      }
      cum += n;
    }
  }
  layers["pool.queue_wait_us_p50"] = {p50 / 1e3};
}

uint64_t Bench::VerifyAgainstOracle(std::vector<std::string>& notes) {
  Client& c = *last_client_;
  uint64_t wrong = 0;
  size_t checked = 0;
  // Keys are ordered by state, so each checked state is rebuilt once.
  Database db;
  std::optional<size_t> db_state;
  for (const auto& [key, check] : checks_) {
    const auto& [state, query, d, cap] = key;
    if (ingest() && std::find(spec_.oracle_states.begin(),
                              spec_.oracle_states.end(),
                              state) == spec_.oracle_states.end()) {
      continue;
    }
    if (db_state != state) {
      db = Load();
      for (size_t b = 0; ingest() && b <= state; ++b) {
        for (const Table& t : spec_.batches[b]) InsertRows(db, t);
      }
      db_state = state;
    }
    auto expected = [&]() -> StatusOr<Relation> {
      const AlgExpr* plan = nullptr;
      if (c.compiled[query].has_value()) {
        plan = c.compiled[query]->plan();
      } else {
        auto p = c.param[query]->PlanFor(ArgsFor({query, {d, cap}}));
        if (!p.ok()) return p.status();
        plan = *p;
      }
      return EvaluateAlgebraLegacy(c.compiler->ctx(), plan, db,
                                   c.compiler->functions());
    }();
    ++checked;
    if (!expected.ok() || AnswerHash(*expected) != check.hash) {
      wrong += check.ops;
      notes.push_back(std::string("oracle mismatch: ") +
                      spec_.queries[query].text);
    }
  }
  notes.push_back("legacy-interpreter oracle: " + std::to_string(checked) +
                  " (state, query) answers checked in full, " +
                  std::to_string(checks_.size()) +
                  " checked for agreement across ops");
  return wrong;
}

uint64_t Bench::ScaledCalculusChecks(std::vector<std::string>& notes,
                                     uint64_t* attempted) {
  Client& c = *last_client_;
  AstContext& ctx = c.compiler->ctx();
  uint64_t wrong = 0, checks = 0;
  auto compare = [&](const StatusOr<Relation>& got, const Query& q,
                     const Database& db, const char* text) {
    ++checks;
    auto expected = EvaluateCalculus(ctx, q, db, c.compiler->functions());
    if (!got.ok() || !expected.ok() || !(*got == *expected)) {
      ++wrong;
      notes.push_back(std::string("reference-evaluator mismatch: ") + text);
    }
  };
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t s = seed_ * 1000003 + round * 17 + 1;
    switch (spec_.kind) {
      case Kind::kQ6Antijoin: {
        Database db = MakeQ6Instance(24, 10, 5, s);
        compare(c.compiled[0]->Run(db), c.compiled[0]->query(), db, kQ6);
        break;
      }
      case Kind::kProjectSort: {
        // Small pools keep plus()'s closure small; the filter needs values
        // on both sides of 1000.
        Database plus_db = MakeQ6Instance(10, 0, 6, s);
        compare(c.compiled[0]->Run(plus_db), c.compiled[0]->query(), plus_db,
                kProjPlus);
        Database filter_db = MakeQ6Instance(12, 0, 2000, s);
        compare(c.compiled[1]->Run(filter_db), c.compiled[1]->query(),
                filter_db, kProjFilter);
        break;
      }
      case Kind::kIngestQuery: {
        Database db = MakeQ6Instance(16, 6, 5, s);
        for (uint64_t b = 0; b < 3; ++b) {
          InsertRows(db, RandomTable("R", 3, 4, 5, s * 7 + b));
          InsertRows(db, RandomTable("S", 2, 2, 5, s * 11 + b));
          for (size_t q = 0; q < 2; ++q) {
            compare(c.compiled[q]->Run(db), c.compiled[q]->query(), db,
                    spec_.queries[q].text);
          }
        }
        break;
      }
      case Kind::kParamCalls: {
        Database db = MakePayrollInstance(8, 3, s);
        for (int64_t d = 0; d < 3; ++d) {
          for (int64_t cap : {int64_t{0}, int64_t{2500}}) {
            for (size_t q = 0; q < spec_.queries.size(); ++q) {
              if (q == 1 && cap != 0) continue;
              char text[256];
              std::snprintf(text, sizeof(text), spec_.queries[q].grounded,
                            static_cast<long long>(d),
                            static_cast<long long>(cap));
              auto grounded = ParseQuery(ctx, text);
              if (!grounded.ok()) Die(std::string("parse: ") + text);
              compare(c.param[q]->Run(db, ArgsFor({q, {d, cap}})), *grounded,
                      db, text);
            }
          }
        }
        break;
      }
    }
  }
  *attempted += checks;
  notes.push_back("reference-evaluator oracle: " + std::to_string(checks) +
                  " answers on scaled-down instances");
  return wrong;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::vector<Metric> EndToEnd(const LoopStats& st,
                             const std::vector<double>& compile_us) {
  const size_t n = st.latency_us.size();
  const size_t beyond_p90 = n - static_cast<size_t>(std::ceil(0.9 * n));
  // On a shared host, speed can swing by 1.7x within seconds, so a run
  // mixes fast and slow stretches, and a quantile of the pooled samples jumps
  // between the two modes as their mix changes. Quantiles are therefore
  // taken per group of consecutive samples (a complete block; a burst of
  // compiles) and averaged over the groups, which moves with the mix only
  // in proportion.
  const size_t blocks = st.block_latency_ends.size();
  std::vector<size_t> bursts;
  for (size_t e = kCompileBurst; e <= compile_us.size(); e += kCompileBurst) {
    bursts.push_back(e);
  }
  const std::string per_block =
      (blocks > 0 ? "mean of " + std::to_string(blocks) + " block values"
                  : std::string("whole loop")) +
      "; n=" + std::to_string(n) + " ops";
  return {
      {"setup_s", Median(st.setup_s), "s",
       "n=" + std::to_string(st.setup_s.size()) + " loads"},
      {"latency_p50_us",
       MeanOfGroupQuantiles(st.latency_us, st.block_latency_ends, 0.5), "us",
       per_block},
      {"latency_p90_us",
       MeanOfGroupQuantiles(st.latency_us, st.block_latency_ends, 0.9), "us",
       per_block + ", " + std::to_string(beyond_p90) +
           " beyond the loop's p90"},
      {"ops_per_s", st.busy_s > 0 ? static_cast<double>(st.ops) / st.busy_s : 0,
       "1/s", std::to_string(st.ops) + " ops in " +
                  std::to_string(st.busy_s) + " s"},
      {"cold_query_us",
       MeanOfGroupQuantiles(st.cold_us, st.block_cold_ends, 0.5), "us",
       (blocks > 0 ? "mean of block medians" : "whole loop") +
           std::string("; n=") + std::to_string(st.cold_us.size()) +
           " loads or writes"},
      {"compile_us", MeanOfGroupQuantiles(compile_us, bursts, 0.5), "us",
       "mean of " + std::to_string(bursts.size()) + " burst medians; n=" +
           std::to_string(compile_us.size()) + " compiles"},
      {"peak_rss_mb", 0, "MB", "process high-water RSS"},
      {"rss_growth_mb", st.rss_end_mb - st.rss_warm_mb, "MB",
       "RSS after the loop minus after warm-up"},
      {"error_rate",
       st.ops == 0 ? 0
                   : static_cast<double>(st.failed) /
                         static_cast<double>(st.ops),
       "ratio", std::to_string(st.failed) + " of " + std::to_string(st.ops)},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric the traced run reports, in print order.
const LayerDef kLayers[] = {
    {"calculus.parse_us", "us"},
    {"safety.check_us", "us"},
    {"finds.bd_computations", "count"},
    {"finds.cover_size", "count"},
    {"translate.enf_us", "us"},
    {"translate.ranf_us", "us"},
    {"translate.algebra_gen_us", "us"},
    {"translate.plan_nodes", "count"},
    {"algebra.optimize_us", "us"},
    {"exec.lower_us", "us"},
    {"exec.execute_us", "us"},
    {"exec.unattributed_us", "us"},
    {"exec.copy_out_us", "us"},
    {"exec.self_us.scan", "us"},
    {"exec.self_us.filter_select", "us"},
    {"exec.self_us.project_map", "us"},
    {"exec.self_us.hash_join", "us"},
    {"exec.self_us.diff_anti", "us"},
    {"exec.self_us.union_merge", "us"},
    {"exec.self_us.materialize", "us"},
    {"exec.rows_out_total", "count"},
    {"exec.useful_row_ratio", "ratio"},
    {"exec.hash_build_rows", "count"},
    {"exec.hash_probes", "count"},
    {"exec.function_calls", "count"},
    {"exec.tuple_copies", "count"},
    {"exec.batch_density", "ratio"},
    {"exec.peak_query_bytes", "bytes"},
    {"pool.regions", "count"},
    {"pool.busy_us", "us"},
    {"pool.efficiency", "ratio"},
    {"pool.queue_wait_us_p50", "us"},
    {"storage.insert_ns_per_row", "ns"},
    {"storage.first_touch_us", "us"},
    {"core.plan_for_us", "us"},
    {"core.run_overhead_us", "us"},
    {"core.arena_bytes_per_call", "bytes"},
    {"process.rss_growth_mb", "MB"},
    {"trace.overhead.setup_s", "s"},
    {"trace.overhead.latency_p50_us", "us"},
    {"trace.overhead.latency_p90_us", "us"},
    {"trace.overhead.ops_per_s", "1/s"},
    {"trace.overhead.cold_query_us", "us"},
    {"trace.overhead.compile_us", "us"},
};

// The end-to-end metrics of the final JSON line; rss_growth_mb and
// error_rate are printed with them but travel as process.rss_growth_mb and
// as the result's failed/attempted counts (both are 0 on a healthy build,
// and a 0 median gives no relative spread to bound).
const char* const kEndToEndJson[] = {
    "setup_s",       "latency_p50_us", "latency_p90_us", "ops_per_s",
    "cold_query_us", "compile_us",     "peak_rss_mb",
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + std::string(a));
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--out") {
      o.out_dir = value();
    } else {
      Die("unknown argument " + std::string(a));
    }
  }
  if (o.seconds <= 0) Die("--seconds must be positive");
  return o;
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  const std::optional<Kind> kind = ParseKind(opt.workload);
  if (!kind) {
    Die("unknown workload '" + opt.workload +
        "' (q6_antijoin, project_sort, param_calls, ingest_query)");
  }
  // Environment hygiene: only the worker-count knob may reach the library
  // (query log, history, trace, morsel threshold and resource limits would
  // all change what is measured).
  for (char** e = environ; *e != nullptr; ++e) {
    std::string_view kv = *e;
    if (kv.substr(0, 7) == "EMCALC_" &&
        kv.substr(0, 24) != "EMCALC_HARDWARE_THREADS=") {
      Die("environment must not set " +
          std::string(kv.substr(0, kv.find('='))));
    }
  }
  const size_t workers = ThreadPool::HardwareThreads();

  Bench bench(MakeSpec(*kind, opt.seed), opt.seed);
  const double loop_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  LoopStats st = bench.Loop(loop_seconds, /*traced=*/false, nullptr);
  const double peak_rss_mb = ProcStatusMb("VmHWM:");

  Samples layers;
  std::vector<double> traced_compile_us;
  LoopStats traced;
  if (opt.trace) {
    traced_compile_us = bench.TraceCompile(layers);
    traced = bench.Loop(loop_seconds, /*traced=*/true, &layers);
    bench.FoldPool(layers);
  }

  std::vector<std::string> notes;
  uint64_t attempted = st.ops + traced.ops + bench.compile_attempts();
  uint64_t failed = st.failed + traced.failed + bench.compile_failures();
  const uint64_t checks_start = NowNs();
  failed += bench.VerifyAgainstOracle(notes);
  failed += bench.ScaledCalculusChecks(notes, &attempted);
  char took[64];
  std::snprintf(took, sizeof(took), "oracle checks took %.2f s",
                static_cast<double>(NowNs() - checks_start) / 1e9);
  notes.push_back(took);

  std::vector<Metric> e2e = EndToEnd(st, st.compile_us);
  for (Metric& m : e2e) {
    if (m.name == "peak_rss_mb") m.value = peak_rss_mb;
  }
  std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d "
              "workers=%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, workers);
  std::printf("end-to-end (untraced loop of %.1f s):\n", loop_seconds);
  for (const Metric& m : e2e) {
    std::printf("  %-16s %14.4f %-5s  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& n : notes) std::printf("check: %s\n", n.c_str());

  std::map<std::string, double> layer_values;
  if (opt.trace) {
    for (const auto& [name, v] : layers) layer_values[name] = Median(v);
    // Run overhead: the public Run path per op, minus the caller's own
    // Execute + copy-out of the same plans (traced loop).
    layer_values["core.run_overhead_us"] =
        Median(st.query_us) - layer_values["exec.execute_us"] -
        layer_values["exec.copy_out_us"];
    layer_values["core.arena_bytes_per_call"] =
        st.calls == 0 ? 0
                      : static_cast<double>(st.arena_bytes) /
                            static_cast<double>(st.calls);
    layer_values["process.rss_growth_mb"] = st.rss_end_mb - st.rss_warm_mb;
    const std::vector<Metric> t = EndToEnd(traced, traced_compile_us);
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].name == "peak_rss_mb" || t[i].name == "rss_growth_mb" ||
          t[i].name == "error_rate") {
        continue;
      }
      layer_values["trace.overhead." + t[i].name] = t[i].value - e2e[i].value;
    }
    std::printf("per-layer (traced loop of %.1f s; medians per traced op):\n",
                loop_seconds);
    for (const LayerDef& l : kLayers) {
      const auto it = layers.find(l.name);
      const std::string n =
          it == layers.end() ? "" : "n=" + std::to_string(it->second.size());
      std::printf("  %-32s %14.4f %-5s  %s\n", l.name, layer_values[l.name],
                  l.unit, n.c_str());
    }
  }

  const bool correct = failed == 0;
  std::string metrics = "{";
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    if (metrics.size() > 1) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + JsonNumber(v) +
               ",\"unit\":\"" + unit + "\"}";
  };
  if (opt.trace) {
    for (const LayerDef& l : kLayers) add(l.name, layer_values[l.name], l.unit);
  } else {
    for (const char* name : kEndToEndJson) {
      for (const Metric& m : e2e) {
        if (m.name == name) add(m.name, m.value, m.unit);
      }
    }
  }
  metrics += "}";
  const std::string result =
      "{\"correct\":" + std::string(correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(attempted) +
      ",\"failed\":" + std::to_string(failed) + ",\"metrics\":" + metrics + "}";

  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    std::ofstream rec(stem + ".json");
    rec << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
        << ",\"workers\":" << workers << ",\"seconds\":" << opt.seconds
        << ",\"latency_us\":[";
    for (size_t i = 0; i < st.latency_us.size(); ++i) {
      rec << (i == 0 ? "" : ",") << JsonNumber(st.latency_us[i]);
    }
    rec << "],\"result\":" << result << "}\n";
    if (opt.trace && !bench.tracer().Write(stem + ".spans.jsonl")) {
      Die("cannot write " + stem + ".spans.jsonl");
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace emcalc::hostbench

int main(int argc, char** argv) { return emcalc::hostbench::Main(argc, argv); }
