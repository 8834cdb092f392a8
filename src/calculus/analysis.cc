#include "src/calculus/analysis.h"

#include <string>

namespace emcalc {
namespace {

void CollectTermVars(const Term* t, std::vector<Symbol>& out) {
  switch (t->kind()) {
    case Term::Kind::kVar:
      out.push_back(t->symbol());
      break;
    case Term::Kind::kConst:
    case Term::Kind::kParam:
      break;
    case Term::Kind::kApply:
      for (const Term* a : t->args()) CollectTermVars(a, out);
      break;
  }
}

// Walks every term of `f`, invoking `fn` on each top-level term.
template <typename Fn>
void ForEachTerm(const Formula* f, Fn&& fn) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      break;
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      for (const Term* t : f->terms()) fn(t);
      break;
    case FormulaKind::kNot:
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      ForEachTerm(f->child(), fn);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const Formula* c : f->children()) ForEachTerm(c, fn);
      break;
  }
}

void FreeVarsInto(const Formula* f, std::vector<Symbol>& out,
                  std::vector<Symbol>& bound) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      break;
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq: {
      std::vector<Symbol> vars;
      for (const Term* t : f->terms()) CollectTermVars(t, vars);
      for (Symbol v : vars) {
        bool is_bound = false;
        for (Symbol b : bound) {
          if (b == v) {
            is_bound = true;
            break;
          }
        }
        if (!is_bound) out.push_back(v);
      }
      break;
    }
    case FormulaKind::kNot:
      FreeVarsInto(f->child(), out, bound);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const Formula* c : f->children()) FreeVarsInto(c, out, bound);
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      size_t mark = bound.size();
      for (Symbol v : f->vars()) bound.push_back(v);
      FreeVarsInto(f->child(), out, bound);
      bound.resize(mark);
      break;
    }
  }
}

}  // namespace

SymbolSet TermVars(const Term* t) {
  std::vector<Symbol> vars;
  CollectTermVars(t, vars);
  return SymbolSet(std::move(vars));
}

SymbolSet DirectVars(std::span<const Term* const> terms) {
  std::vector<Symbol> vars;
  for (const Term* t : terms) {
    if (t->is_var()) vars.push_back(t->symbol());
  }
  return SymbolSet(std::move(vars));
}

SymbolSet FreeVars(const Formula* f) {
  std::vector<Symbol> out;
  std::vector<Symbol> bound;
  FreeVarsInto(f, out, bound);
  return SymbolSet(std::move(out));
}

SymbolSet AllVars(const Formula* f) {
  std::vector<Symbol> out;
  ForEachTerm(f, [&out](const Term* t) { CollectTermVars(t, out); });
  // Quantified variables may not occur in any term (vacuous quantification);
  // include them too.
  struct Walker {
    std::vector<Symbol>& out;
    void Walk(const Formula* g) {
      switch (g->kind()) {
        case FormulaKind::kExists:
        case FormulaKind::kForall:
          for (Symbol v : g->vars()) out.push_back(v);
          Walk(g->child());
          break;
        case FormulaKind::kNot:
          Walk(g->child());
          break;
        case FormulaKind::kAnd:
        case FormulaKind::kOr:
          for (const Formula* c : g->children()) Walk(c);
          break;
        default:
          break;
      }
    }
  };
  Walker{out}.Walk(f);
  return SymbolSet(std::move(out));
}

namespace {

int TermApplications(const Term* t) {
  if (t->kind() != Term::Kind::kApply) return 0;
  int n = 1;
  for (const Term* a : t->args()) n += TermApplications(a);
  return n;
}

int TermDepth(const Term* t) {
  if (t->kind() != Term::Kind::kApply) return 0;
  int deepest = 0;
  for (const Term* a : t->args()) deepest = std::max(deepest, TermDepth(a));
  return 1 + deepest;
}

}  // namespace

bool HasFunctions(const Formula* f) { return CountApplications(f) > 0; }

int CountApplications(const Formula* f) {
  int n = 0;
  ForEachTerm(f, [&n](const Term* t) { n += TermApplications(t); });
  return n;
}

int MaxFunctionDepth(const Formula* f) {
  int d = 0;
  ForEachTerm(f, [&d](const Term* t) { d = std::max(d, TermDepth(t)); });
  return d;
}

int FormulaSize(const Formula* f) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return 1;
    case FormulaKind::kNot:
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      return 1 + FormulaSize(f->child());
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      int n = 1;
      for (const Formula* c : f->children()) n += FormulaSize(c);
      return n;
    }
  }
  return 1;
}

int QuantifierCount(const Formula* f) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return 0;
    case FormulaKind::kNot:
      return QuantifierCount(f->child());
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      return 1 + QuantifierCount(f->child());
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      int n = 0;
      for (const Formula* c : f->children()) n += QuantifierCount(c);
      return n;
    }
  }
  return 0;
}

namespace {

void CollectTermFunctions(const Term* t, std::map<Symbol, int>& out) {
  if (t->kind() == Term::Kind::kApply) {
    out.emplace(t->symbol(), static_cast<int>(t->args().size()));
    for (const Term* a : t->args()) CollectTermFunctions(a, out);
  }
}

void CollectRelationsInto(const Formula* f, std::map<Symbol, int>& out) {
  switch (f->kind()) {
    case FormulaKind::kRel:
      out.emplace(f->rel(), static_cast<int>(f->terms().size()));
      break;
    case FormulaKind::kNot:
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      CollectRelationsInto(f->child(), out);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const Formula* c : f->children()) CollectRelationsInto(c, out);
      break;
    default:
      break;
  }
}

void CollectTermConstants(const Term* t, std::vector<uint32_t>& out) {
  switch (t->kind()) {
    case Term::Kind::kConst:
      out.push_back(t->const_id());
      break;
    case Term::Kind::kApply:
      for (const Term* a : t->args()) CollectTermConstants(a, out);
      break;
    default:
      break;
  }
}

}  // namespace

std::map<Symbol, int> CollectRelations(const Formula* f) {
  std::map<Symbol, int> out;
  CollectRelationsInto(f, out);
  return out;
}

std::map<Symbol, int> CollectFunctions(const Formula* f) {
  std::map<Symbol, int> out;
  ForEachTerm(f, [&out](const Term* t) { CollectTermFunctions(t, out); });
  return out;
}

std::vector<uint32_t> CollectConstants(const Formula* f) {
  std::vector<uint32_t> out;
  ForEachTerm(f, [&out](const Term* t) { CollectTermConstants(t, out); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

Status CheckNode(const Formula* f, const SymbolTable& symbols,
                 std::map<Symbol, int>& rel_arity,
                 std::map<Symbol, int>& fn_arity,
                 std::vector<Symbol>& in_scope) {
  auto check_term = [&](const Term* t, auto&& self) -> Status {
    if (t->kind() == Term::Kind::kApply) {
      int arity = static_cast<int>(t->args().size());
      auto [it, inserted] = fn_arity.emplace(t->symbol(), arity);
      if (!inserted && it->second != arity) {
        return InvalidArgumentError(
            "function '" + std::string(symbols.Name(t->symbol())) +
            "' used with arities " + std::to_string(it->second) + " and " +
            std::to_string(arity));
      }
      for (const Term* a : t->args()) {
        Status s = self(a, self);
        if (!s.ok()) return s;
      }
    }
    return Status::Ok();
  };

  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return Status::Ok();
    case FormulaKind::kRel: {
      int arity = static_cast<int>(f->terms().size());
      auto [it, inserted] = rel_arity.emplace(f->rel(), arity);
      if (!inserted && it->second != arity) {
        return InvalidArgumentError(
            "relation '" + std::string(symbols.Name(f->rel())) +
            "' used with arities " + std::to_string(it->second) + " and " +
            std::to_string(arity));
      }
      for (const Term* t : f->terms()) {
        Status s = check_term(t, check_term);
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq: {
      for (const Term* t : f->terms()) {
        Status s = check_term(t, check_term);
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }
    case FormulaKind::kNot:
      return CheckNode(f->child(), symbols, rel_arity, fn_arity, in_scope);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      for (const Formula* c : f->children()) {
        Status s = CheckNode(c, symbols, rel_arity, fn_arity, in_scope);
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      for (size_t i = 0; i < f->vars().size(); ++i) {
        for (size_t j = i + 1; j < f->vars().size(); ++j) {
          if (f->vars()[i] == f->vars()[j]) {
            return InvalidArgumentError(
                "duplicate quantified variable '" +
                std::string(symbols.Name(f->vars()[i])) + "'");
          }
        }
        for (Symbol outer : in_scope) {
          if (outer == f->vars()[i]) {
            return InvalidArgumentError(
                "quantifier shadows variable '" +
                std::string(symbols.Name(f->vars()[i])) + "'");
          }
        }
      }
      size_t mark = in_scope.size();
      for (Symbol v : f->vars()) in_scope.push_back(v);
      Status s = CheckNode(f->child(), symbols, rel_arity, fn_arity, in_scope);
      in_scope.resize(mark);
      return s;
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckWellFormed(const Formula* f, const SymbolTable& symbols) {
  std::map<Symbol, int> rel_arity;
  std::map<Symbol, int> fn_arity;
  SymbolSet free = FreeVars(f);
  std::vector<Symbol> in_scope(free.begin(), free.end());
  return CheckNode(f, symbols, rel_arity, fn_arity, in_scope);
}

Status CheckWellFormed(const Query& q, const SymbolTable& symbols) {
  Status s = CheckWellFormed(q.body, symbols);
  if (!s.ok()) return s;
  SymbolSet free = FreeVars(q.body);
  SymbolSet head(q.head);
  if (head.size() != q.head.size()) {
    return InvalidArgumentError("duplicate variable in query head");
  }
  if (free != head) {
    return InvalidArgumentError(
        "query head must list exactly the free variables of the body; head " +
        head.ToString(symbols) + " vs free " + free.ToString(symbols));
  }
  return Status::Ok();
}

}  // namespace emcalc
