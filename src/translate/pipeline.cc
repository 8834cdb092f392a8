#include "src/translate/pipeline.h"

#include "src/algebra/optimizer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/rewrite.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/translate/algebra_gen.h"
#include "src/translate/distribute.h"
#include "src/translate/ranf.h"
#include "src/verify/verify.h"

namespace emcalc {

BoundOptions EffectiveBound(const TranslateOptions& options) {
  BoundOptions bound = options.bound;
  for (const auto& [fn, inv] : options.inverse_fns) {
    bound.invertible_fns.Insert(fn);
  }
  return bound;
}

StatusOr<Translation> TranslateQuery(AstContext& ctx, const Query& q,
                                     const TranslateOptions& options,
                                     const std::vector<Symbol>& params) {
  obs::Span span("compile.translate");
  uint64_t start_ns = obs::NowNs();
  Translation out;
  out.profile.name = "translate";
  const SymbolSet context(params);

  // Shadowed quantifiers are legal calculus; rename them apart so the
  // remaining passes (and the well-formedness check) can assume distinct
  // bound variables.
  Query query = q;
  {
    obs::PhaseTimer timer(&out.profile, "rectify", "compile.rectify");
    query.body = Rectify(ctx, q.body);
    if (Status s = CheckWellFormed(query, ctx.symbols(), params); !s.ok()) {
      return s;
    }
  }

  const BoundOptions bound = EffectiveBound(options);

  {
    obs::PhaseTimer timer(&out.profile, "safety", "compile.safety");
    if (options.check_safety) {
      EmAllowedChecker checker(ctx, bound);
      out.safety = checker.CheckFormula(query.body, context);
      out.bd_computations = checker.bound().computations();
      if (out.safety.em_allowed) {
        out.find_count = checker.bound().Bound(query.body).size();
      }
      timer.SetDetail(
          (out.safety.em_allowed ? std::string("em-allowed")
                                 : std::string("rejected")) +
          " bd_computations=" + std::to_string(out.bd_computations) +
          " finds=" + std::to_string(out.find_count));
      if (!out.safety.em_allowed) {
        return NotSafeError((params.empty()
                                 ? "query is not em-allowed: "
                                 : "query is not em-allowed for its "
                                   "parameters: ") +
                            out.safety.reason);
      }
    } else {
      out.safety = SafetyResult::Accept();
      out.safety.reason = "(safety check skipped)";
      timer.SetDetail("skipped");
    }
  }

  {
    obs::PhaseTimer timer(&out.profile, "enf", "compile.enf");
    EnfOptions enf_options;
    enf_options.enable_t10 = options.enable_t10;
    enf_options.bound = bound;
    out.enf = ToEnf(ctx, query.body, enf_options);
    timer.SetDetail("size=" + std::to_string(FormulaSize(out.enf)));
  }

  // Stage boundary 2: the rectified + safety-checked formula in ENF.
  if (verify::Enabled()) {
    verify::VerifyReport vr =
        verify::VerifySafetyFormula(ctx, out.enf, FreeVars(query.body));
    if (!vr.ok()) return vr.ToStatus();
  }

  const Formula* pre_ranf = out.enf;
  if (options.distribute_disjunctions) {
    obs::PhaseTimer timer(&out.profile, "distribute", "compile.distribute");
    pre_ranf = DistributeDisjunctions(ctx, pre_ranf);
    timer.SetDetail("size=" + std::to_string(FormulaSize(pre_ranf)));
  }

  {
    obs::PhaseTimer timer(&out.profile, "ranf", "compile.ranf");
    auto ranf = ToRanf(ctx, pre_ranf, context, bound.invertible_fns);
    if (!ranf.ok()) return ranf.status();
    out.ranf = *ranf;
    timer.SetDetail("size=" + std::to_string(FormulaSize(out.ranf)));
  }

  // Each parameter becomes the closed term $i. Like an argument constant
  // it turns "RANF for params" into "RANF for {}", so the plan has the
  // shape a grounded plan has, with parameter slots where the argument
  // constants would be.
  const Formula* generated = out.ranf;
  {
    obs::PhaseTimer timer(&out.profile, "algebra_gen", "compile.algebra_gen");
    if (!params.empty()) {
      Substitution slots;
      for (size_t i = 0; i < params.size(); ++i) {
        slots.emplace(params[i], ctx.MakeParam(static_cast<uint32_t>(i)));
      }
      generated = SubstituteFormula(ctx, out.ranf, slots);
    }
    AlgebraGenerator generator(ctx, options.inverse_fns);
    auto plan = generator.Translate(generated, query.head);
    if (!plan.ok()) return plan.status();
    out.raw_plan = *plan;
    timer.SetDetail("nodes=" + std::to_string(out.raw_plan->NodeCount()));
  }

  // Stage boundary 3: the RANF formula the generator translated and the
  // raw plan.
  if (verify::Enabled()) {
    verify::AlgebraOptions opts;
    opts.expected_arity = static_cast<int>(query.head.size());
    verify::VerifyReport vr =
        verify::VerifyRanfAlgebra(ctx, generated, SymbolSet{},
                                  bound.invertible_fns, out.raw_plan, opts);
    if (!vr.ok()) return vr.ToStatus();
  }

  if (options.optimize) {
    obs::PhaseTimer timer(&out.profile, "optimize", "compile.optimize");
    AlgebraFactory factory(ctx);
    out.plan = OptimizePlan(factory, out.raw_plan);
    timer.SetDetail("nodes " + std::to_string(out.raw_plan->NodeCount()) +
                    "->" + std::to_string(out.plan->NodeCount()));
  } else {
    out.plan = out.raw_plan;
  }

  // Stage boundary 4: the optimized plan (the optimizer must preserve
  // every structural invariant the raw plan had).
  if (options.optimize && verify::Enabled()) {
    verify::AlgebraOptions opts;
    opts.stage = verify::Stage::kOptimizedAlgebra;
    opts.expected_arity = static_cast<int>(query.head.size());
    verify::VerifyReport vr = verify::VerifyAlgebra(ctx, out.plan, opts);
    if (!vr.ok()) return vr.ToStatus();
  }

  out.profile.wall_ns = obs::NowNs() - start_ns;

  static obs::Counter& translations =
      obs::MetricsRegistry::Instance().GetCounter("translate.queries");
  translations.Add();
  return out;
}

}  // namespace emcalc
