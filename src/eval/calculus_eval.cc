#include "src/eval/calculus_eval.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/check.h"
#include "src/calculus/analysis.h"

namespace emcalc {
namespace {

// Recursive formula evaluator over a fixed finite domain.
class CalculusEvaluator {
 public:
  CalculusEvaluator(const AstContext& ctx, const Database& db,
                    const FunctionRegistry& registry, ValueSet domain)
      : ctx_(ctx), db_(db), registry_(registry), domain_(std::move(domain)) {}

  // Resolves relations and functions used by `f`.
  Status Validate(const Formula* f) {
    for (const auto& [rel, arity] : CollectRelations(f)) {
      std::string name(ctx_.symbols().Name(rel));
      auto r = db_.Get(name);
      if (!r.ok()) return r.status();
      if ((*r)->arity() != arity) {
        return InvalidArgumentError("relation '" + name + "' used with arity " +
                                    std::to_string(arity) + ", instance has " +
                                    std::to_string((*r)->arity()));
      }
      relations_.emplace(rel, *r);
    }
    for (const auto& [fn, arity] : CollectFunctions(f)) {
      auto sf = registry_.Get(std::string(ctx_.symbols().Name(fn)), arity);
      if (!sf.ok()) return sf.status();
      functions_.emplace(fn, *sf);
    }
    return Status::Ok();
  }

  Value EvalTerm(const Term* t) {
    switch (t->kind()) {
      case Term::Kind::kVar: {
        auto it = valuation_.find(t->symbol());
        EMCALC_CHECK_MSG(it != valuation_.end(), "unbound variable '%s'",
                         std::string(ctx_.symbols().Name(t->symbol())).c_str());
        return it->second;
      }
      case Term::Kind::kConst:
        return ctx_.ConstantAt(t->const_id());
      case Term::Kind::kParam:
        // Parameter terms exist only between ParameterizedQuery's
        // substitution and its algebra generation; the reference evaluator
        // runs queries whose parameters were substituted as constants.
        EMCALC_CHECK_MSG(false, "parameter term $%u reached the evaluator",
                         t->param_index() + 1);
        return Value();
      case Term::Kind::kApply: {
        std::vector<Value> args;
        args.reserve(t->args().size());
        for (const Term* a : t->args()) args.push_back(EvalTerm(a));
        return functions_.at(t->symbol())->fn(args);
      }
    }
    return Value();
  }

  bool Eval(const Formula* f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kRel: {
        Tuple t;
        t.reserve(f->terms().size());
        for (const Term* term : f->terms()) t.push_back(EvalTerm(term));
        return relations_.at(f->rel())->Contains(t);
      }
      case FormulaKind::kEq:
        return EvalTerm(f->lhs()) == EvalTerm(f->rhs());
      case FormulaKind::kNeq:
        return EvalTerm(f->lhs()) != EvalTerm(f->rhs());
      case FormulaKind::kLess:
        return EvalTerm(f->lhs()) < EvalTerm(f->rhs());
      case FormulaKind::kLessEq: {
        Value l = EvalTerm(f->lhs());
        Value r = EvalTerm(f->rhs());
        return l < r || l == r;
      }
      case FormulaKind::kNot:
        return !Eval(f->child());
      case FormulaKind::kAnd: {
        for (const Formula* c : f->children()) {
          if (!Eval(c)) return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        for (const Formula* c : f->children()) {
          if (Eval(c)) return true;
        }
        return false;
      }
      case FormulaKind::kExists:
        return EvalQuantifier(f, /*is_exists=*/true, 0);
      case FormulaKind::kForall:
        return EvalQuantifier(f, /*is_exists=*/false, 0);
    }
    return false;
  }

  void Bind(Symbol var, const Value& v) { valuation_[var] = v; }
  void Unbind(Symbol var) { valuation_.erase(var); }

 private:
  bool EvalQuantifier(const Formula* f, bool is_exists, size_t index) {
    if (index == f->vars().size()) return Eval(f->child());
    Symbol var = f->vars()[index];
    // Save/restore any shadowed binding (well-formed input has none, but the
    // evaluator stays correct on shadowing anyway).
    auto saved = valuation_.find(var);
    bool had = saved != valuation_.end();
    Value old = had ? saved->second : Value();
    bool result = !is_exists;
    for (const Value& v : domain_) {
      valuation_[var] = v;
      bool sub = EvalQuantifier(f, is_exists, index + 1);
      if (is_exists && sub) {
        result = true;
        break;
      }
      if (!is_exists && !sub) {
        result = false;
        break;
      }
    }
    if (had) {
      valuation_[var] = old;
    } else {
      valuation_.erase(var);
    }
    return result;
  }

  const AstContext& ctx_;
  const Database& db_;
  const FunctionRegistry& registry_;
  ValueSet domain_;
  std::unordered_map<Symbol, Value> valuation_;
  std::unordered_map<Symbol, const Relation*> relations_;
  std::unordered_map<Symbol, const ScalarFunction*> functions_;
};

// Builds the evaluation domain term^level(adom(q, I) + extras).
StatusOr<ValueSet> EvaluationDomain(const AstContext& ctx, const Formula* f,
                                    const Database& db,
                                    const FunctionRegistry& registry,
                                    const CalculusEvalOptions& options) {
  ValueSet base = ActiveDomain(ctx, f, db);
  base.insert(base.end(), options.extra_domain.begin(),
              options.extra_domain.end());
  NormalizeValueSet(base);
  std::vector<std::pair<std::string, int>> fns;
  for (const auto& [fn, arity] : CollectFunctions(f)) {
    fns.emplace_back(std::string(ctx.symbols().Name(fn)), arity);
  }
  fns.insert(fns.end(), options.extra_closure_fns.begin(),
             options.extra_closure_fns.end());
  int level = options.level >= 0 ? options.level : CountApplications(f);
  return TermClosure(std::move(base), fns, registry, level,
                     options.domain_budget);
}

}  // namespace

StatusOr<Relation> EvaluateCalculus(const AstContext& ctx, const Query& q,
                                    const Database& db,
                                    const FunctionRegistry& registry,
                                    const CalculusEvalOptions& options) {
  auto domain = EvaluationDomain(ctx, q.body, db, registry, options);
  if (!domain.ok()) return domain.status();

  CalculusEvaluator evaluator(ctx, db, registry, *domain);
  if (Status s = evaluator.Validate(q.body); !s.ok()) return s;

  // Enumerate valuations of the head variables over the domain.
  Relation out(static_cast<int>(q.head.size()));
  std::vector<size_t> cursor(q.head.size(), 0);
  if (!q.head.empty() && domain->empty()) return out;
  for (;;) {
    Tuple t;
    t.reserve(q.head.size());
    for (size_t i = 0; i < q.head.size(); ++i) {
      const Value& v = (*domain)[cursor[i]];
      evaluator.Bind(q.head[i], v);
      t.push_back(v);
    }
    if (evaluator.Eval(q.body)) out.Insert(std::move(t));
    // Advance mixed-radix cursor.
    int pos = static_cast<int>(q.head.size()) - 1;
    for (; pos >= 0; --pos) {
      size_t p = static_cast<size_t>(pos);
      if (++cursor[p] < domain->size()) break;
      cursor[p] = 0;
    }
    if (pos < 0) break;
  }
  return out;
}

StatusOr<bool> EvaluateFormulaAt(const AstContext& ctx, const Formula* f,
                                 const std::vector<Symbol>& vars,
                                 const Tuple& valuation, const Database& db,
                                 const FunctionRegistry& registry,
                                 const CalculusEvalOptions& options) {
  EMCALC_CHECK(vars.size() == valuation.size());
  auto domain = EvaluationDomain(ctx, f, db, registry, options);
  if (!domain.ok()) return domain.status();
  CalculusEvaluator evaluator(ctx, db, registry, *domain);
  if (Status s = evaluator.Validate(f); !s.ok()) return s;
  for (size_t i = 0; i < vars.size(); ++i) evaluator.Bind(vars[i], valuation[i]);
  return evaluator.Eval(f);
}

}  // namespace emcalc
