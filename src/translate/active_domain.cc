#include "src/translate/active_domain.h"

#include <vector>

#include "src/algebra/optimizer.h"
#include "src/base/symbol_set.h"
#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/safety/simplify.h"
#include "src/translate/enf.h"

namespace emcalc {
namespace {

// Compositional translator: every subformula yields a plan whose columns
// are exactly its free variables, in SymbolSet (sorted) order.
class AdomTranslator {
 public:
  AdomTranslator(AstContext& ctx, const AlgExpr* adom)
      : ctx_(ctx), factory_(ctx), adom_(adom) {}

  AlgebraFactory& factory() { return factory_; }

  // The adom^k cube over `vars` (in sorted order). Arity 0 => unit.
  const AlgExpr* Cube(const SymbolSet& vars) {
    const AlgExpr* acc = factory_.Unit();
    for (size_t i = 0; i < vars.size(); ++i) {
      acc = factory_.Join({}, acc, adom_);
    }
    return acc;
  }

  StatusOr<const ScalarExpr*> CompileTerm(const Term* t,
                                          const SymbolSet& vars) {
    ExprFactory& ef = factory_.exprs();
    switch (t->kind()) {
      case Term::Kind::kVar: {
        auto it = std::lower_bound(vars.begin(), vars.end(), t->symbol());
        if (it == vars.end() || *it != t->symbol()) {
          return InternalError("variable outside column set");
        }
        return ef.Col(static_cast<int>(it - vars.begin()));
      }
      case Term::Kind::kConst:
        return ef.Const(t->const_id());
      case Term::Kind::kParam:
        return ef.Param(t->param_index());
      case Term::Kind::kApply: {
        std::vector<const ScalarExpr*> args;
        for (const Term* a : t->args()) {
          auto e = CompileTerm(a, vars);
          if (!e.ok()) return e;
          args.push_back(*e);
        }
        return ef.Apply(t->symbol(), args);
      }
    }
    return InternalError("unhandled term kind");
  }

  // Plan whose columns are FreeVars(f) in sorted order.
  StatusOr<const AlgExpr*> Translate(const Formula* f) {
    SymbolSet vars = FreeVars(f);
    ExprFactory& ef = factory_.exprs();
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return factory_.Unit();
      case FormulaKind::kFalse:
        return factory_.Empty(0);
      case FormulaKind::kRel: {
        const AlgExpr* rel =
            factory_.Rel(f->rel(), static_cast<int>(f->terms().size()));
        // Positive atoms whose arguments are distinct variables translate
        // to a plain projection of the relation — this mirrors the paper's
        // rendition of the [AB88] translation, where the adom construction
        // appears only under negation (and, in our extension, wherever a
        // scalar function forces a value enumeration).
        bool simple = true;
        {
          SymbolSet seen;
          for (const Term* t : f->terms()) {
            if (!t->is_var() || seen.Contains(t->symbol())) {
              simple = false;
              break;
            }
            seen.Insert(t->symbol());
          }
        }
        if (simple) {
          std::vector<const ScalarExpr*> outputs;
          for (Symbol v : vars) {
            for (size_t i = 0; i < f->terms().size(); ++i) {
              if (f->terms()[i]->symbol() == v) {
                outputs.push_back(ef.Col(static_cast<int>(i)));
                break;
              }
            }
          }
          return factory_.Project(std::move(outputs), rel);
        }
        // General case (repeated variables or function arguments):
        // join(conds, adom^n, R) and project the variable columns.
        const AlgExpr* cube = Cube(vars);
        int split = static_cast<int>(vars.size());
        std::vector<AlgCondition> conds;
        for (size_t i = 0; i < f->terms().size(); ++i) {
          auto e = CompileTerm(f->terms()[i], vars);
          if (!e.ok()) return e.status();
          conds.push_back(
              {*e, AlgCompareOp::kEq, ef.Col(split + static_cast<int>(i))});
        }
        const AlgExpr* joined = factory_.Join(std::move(conds), cube, rel);
        std::vector<const ScalarExpr*> outputs;
        for (int i = 0; i < split; ++i) outputs.push_back(ef.Col(i));
        return factory_.Project(std::move(outputs), joined);
      }
      case FormulaKind::kEq:
      case FormulaKind::kNeq:
      case FormulaKind::kLess:
      case FormulaKind::kLessEq: {
        const AlgExpr* cube = Cube(vars);
        auto l = CompileTerm(f->lhs(), vars);
        if (!l.ok()) return l.status();
        auto r = CompileTerm(f->rhs(), vars);
        if (!r.ok()) return r.status();
        AlgCompareOp op = AlgCompareOp::kEq;
        switch (f->kind()) {
          case FormulaKind::kNeq:
            op = AlgCompareOp::kNe;
            break;
          case FormulaKind::kLess:
            op = AlgCompareOp::kLt;
            break;
          case FormulaKind::kLessEq:
            op = AlgCompareOp::kLe;
            break;
          default:
            break;
        }
        return factory_.Select({{*l, op, *r}}, cube);
      }
      case FormulaKind::kNot: {
        auto inner = Translate(f->child());
        if (!inner.ok()) return inner;
        return factory_.Diff(Cube(vars), *inner);
      }
      case FormulaKind::kAnd: {
        const AlgExpr* acc = nullptr;
        SymbolSet acc_vars;
        for (const Formula* c : f->children()) {
          auto next = Translate(c);
          if (!next.ok()) return next;
          if (acc == nullptr) {
            acc = *next;
            acc_vars = FreeVars(c);
            continue;
          }
          auto joined = NaturalJoin(acc, acc_vars, *next, FreeVars(c));
          acc = joined.first;
          acc_vars = joined.second;
        }
        return acc;
      }
      case FormulaKind::kOr: {
        // Pad each disjunct to the union variable set with adom columns.
        const AlgExpr* acc = nullptr;
        for (const Formula* c : f->children()) {
          auto branch = Translate(c);
          if (!branch.ok()) return branch;
          const AlgExpr* padded = Pad(*branch, FreeVars(c), vars);
          acc = acc == nullptr ? padded : factory_.Union(acc, padded);
        }
        return acc;
      }
      case FormulaKind::kExists: {
        auto inner = Translate(f->child());
        if (!inner.ok()) return inner;
        SymbolSet inner_vars = FreeVars(f->child());
        std::vector<const ScalarExpr*> outputs;
        int i = 0;
        SymbolSet drop(std::vector<Symbol>(f->vars().begin(),
                                           f->vars().end()));
        for (Symbol v : inner_vars) {
          if (!drop.Contains(v)) outputs.push_back(ef.Col(i));
          ++i;
        }
        return factory_.Project(std::move(outputs), *inner);
      }
      case FormulaKind::kForall:
        return InternalError("forall must be eliminated before baseline "
                             "translation");
    }
    return InternalError("unhandled formula kind");
  }

  // Public padding entry (used for the final head projection).
  const AlgExpr* PadTo(const AlgExpr* plan, const SymbolSet& have,
                       const SymbolSet& want) {
    if (have == want) return plan;
    return Pad(plan, have, want);
  }

 private:
  // Natural join of plans with sorted variable columns; returns the joined
  // plan projected to the sorted union of variables.
  std::pair<const AlgExpr*, SymbolSet> NaturalJoin(const AlgExpr* left,
                                                   const SymbolSet& lvars,
                                                   const AlgExpr* right,
                                                   const SymbolSet& rvars) {
    ExprFactory& ef = factory_.exprs();
    std::vector<AlgCondition> conds;
    int lsize = static_cast<int>(lvars.size());
    {
      int ri = 0;
      for (Symbol v : rvars) {
        auto it = std::lower_bound(lvars.begin(), lvars.end(), v);
        if (it != lvars.end() && *it == v) {
          conds.push_back({ef.Col(static_cast<int>(it - lvars.begin())),
                           AlgCompareOp::kEq, ef.Col(lsize + ri)});
        }
        ++ri;
      }
    }
    const AlgExpr* joined = factory_.Join(std::move(conds), left, right);
    SymbolSet all = lvars.Union(rvars);
    std::vector<const ScalarExpr*> outputs;
    for (Symbol v : all) {
      auto it = std::lower_bound(lvars.begin(), lvars.end(), v);
      if (it != lvars.end() && *it == v) {
        outputs.push_back(ef.Col(static_cast<int>(it - lvars.begin())));
      } else {
        auto rit = std::lower_bound(rvars.begin(), rvars.end(), v);
        outputs.push_back(
            ef.Col(lsize + static_cast<int>(rit - rvars.begin())));
      }
    }
    return {factory_.Project(std::move(outputs), joined), all};
  }

  // Pads `plan` (columns = `have`, sorted) to the sorted column set `want`
  // by crossing with adom for each missing variable.
  const AlgExpr* Pad(const AlgExpr* plan, const SymbolSet& have,
                     const SymbolSet& want) {
    ExprFactory& ef = factory_.exprs();
    SymbolSet missing = want.Minus(have);
    const AlgExpr* crossed = plan;
    for (size_t i = 0; i < missing.size(); ++i) {
      crossed = factory_.Join({}, crossed, adom_);
    }
    // Reorder columns to sorted `want` order.
    std::vector<const ScalarExpr*> outputs;
    for (Symbol v : want) {
      auto it = std::lower_bound(have.begin(), have.end(), v);
      if (it != have.end() && *it == v) {
        outputs.push_back(ef.Col(static_cast<int>(it - have.begin())));
      } else {
        auto mit = std::lower_bound(missing.begin(), missing.end(), v);
        outputs.push_back(ef.Col(static_cast<int>(have.size()) +
                                 static_cast<int>(mit - missing.begin())));
      }
    }
    return factory_.Project(std::move(outputs), crossed);
  }

  AstContext& ctx_;
  AlgebraFactory factory_;
  const AlgExpr* adom_;
};

}  // namespace

StatusOr<const AlgExpr*> TranslateActiveDomain(
    AstContext& ctx, const Query& q, const ActiveDomainOptions& options) {
  if (Status s = CheckWellFormed(q, ctx.symbols()); !s.ok()) return s;

  // Normalize: rectify, simplify, drop foralls (the baseline handles not
  // exists directly).
  const Formula* body = Rectify(ctx, q.body);
  body = Simplify(ctx, body);
  body = EliminateForall(ctx, body);
  body = Simplify(ctx, body);

  int level = options.level >= 0 ? options.level : CountApplications(body);
  std::vector<Symbol> fns;
  for (const auto& [fn, arity] : CollectFunctions(body)) fns.push_back(fn);
  std::vector<uint32_t> consts = CollectConstants(body);

  AlgebraFactory bootstrap(ctx);
  const AlgExpr* adom = bootstrap.Adom(level, std::move(fns),
                                       std::move(consts));
  AdomTranslator translator(ctx, adom);
  auto plan = translator.Translate(body);
  if (!plan.ok()) return plan;

  // Simplification may have dropped head variables from the body (e.g. a
  // body that folded to false); pad the plan back to the full head
  // variable set with adom columns, then project into head order.
  SymbolSet vars = FreeVars(body);
  SymbolSet head_vars(q.head);
  SymbolSet all = vars.Union(head_vars);
  const AlgExpr* padded = translator.PadTo(*plan, vars, all);
  vars = all;
  std::vector<const ScalarExpr*> outputs;
  for (Symbol v : q.head) {
    auto it = std::lower_bound(vars.begin(), vars.end(), v);
    if (it == vars.end() || *it != v) {
      return InternalError("head variable not free in body");
    }
    outputs.push_back(translator.factory().exprs().Col(
        static_cast<int>(it - vars.begin())));
  }
  const AlgExpr* final_plan =
      translator.factory().Project(std::move(outputs), padded);
  if (options.optimize) {
    final_plan = OptimizePlan(translator.factory(), final_plan);
  }
  return final_plan;
}

}  // namespace emcalc
