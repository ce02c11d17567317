"""Monte Carlo estimation and certification of ordering equality.

The estimator counts, over a contiguous range of seeds, how often one
request of a pair precedes the other in the engine's final order. It
counts with the engine's exact pair kernel (``pair_count``), which
takes every delay and noise draw of a block of up to 1,024 seeds from
lanes (``rng.Lanes``) and decides each seed by the pair's order ticks,
or else by its two keys; the engine runs only for a fair seed whose two
keys tie exactly.
Certifiers then compare the estimate against a fairness bound:

  multiplicative   Pr[r before r'] <= B * Pr[r' before r],
                   with B = e^eps (adjacent pairs) or e^(k*eps)
  additive         Pr[r before r'] <= e^eps * Pr[r' before r] + delta

Both are evaluated in probability space: the bound holds for the true p
iff max(p, 1-p) <= thr where thr = (B + delta) / (1 + B). The verdict
is three-valued. With q = max(p_hat, 1 - p_hat), R the Hoeffding
confidence radius of the estimate, and W = 3R a widened margin:

  pass          q <= thr + R
  inconclusive  thr + R < q <= thr + W, or the sample is degenerate
                (R >= 0.5, the interval spans most of [0, 1])
  fail          q > thr + W

|q - max(p, 1-p)| <= R holds at the configured confidence, so a true p
on the bound passes and a violation by more than 4R fails, each with
probability at least the confidence. One between 3R and 4R may read
inconclusive: at max(p, 1-p) = thr + 3.2R, 1,036 of 4,000 simulated
estimates of 2,000 trials at 0.99 did. Exact boundary cases (k = 0) can
never be statistically *confirmed*, only refuted: hence pass up to thr + R.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .engine import pair_count, prepare
from .engine import run_prepared  # noqa: F401  (bench/tracing.py wraps stats.run_prepared)
from .model import ParameterError, check_noise_bound, k_distance, score
from .noise import NoiseKind, uniform_delta
from .scenario import FairPolicy, ScenarioConfig

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DEFAULT_CONFIDENCE = 0.99
DEFAULT_WIDEN = 3.0

CSV_HEADER = "pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict"


class LivenessError(RuntimeError):
    """A request of the estimated pair was missing from some final order."""


class MisuseError(ValueError):
    """Certifier applied outside its contract (e.g. non-adjacent pair)."""


@dataclass(frozen=True)
class FairnessReport:
    pair: tuple[int, int]
    n_trials: int
    count_first: int
    p_hat: float
    ratio_hat: float
    k: float
    k_relev: float
    confidence: float
    confidence_radius: float
    epsilon: float | None = None
    bound: float | None = None
    additive_delta: float | None = None
    verdict: str | None = None
    in_contract: bool = True

    def csv_row(self) -> str:
        def fmt(x):
            return "" if x is None else str(x)

        return ",".join([
            str(self.pair[0]), str(self.pair[1]), str(self.n_trials),
            str(self.count_first), str(self.p_hat), str(self.k),
            fmt(self.epsilon), fmt(self.bound), str(self.confidence_radius),
            fmt(self.verdict),
        ])


def hoeffding_radius(n_trials: int, confidence: float) -> float:
    """Two-sided Hoeffding radius: sqrt(ln(2 / (1 - confidence)) / (2n))."""
    if n_trials <= 0:
        raise ParameterError("n_trials must be positive")
    if not 0.0 < confidence < 1.0:
        raise ParameterError("confidence must lie strictly between 0 and 1")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n_trials))


def reports_csv(reports) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


def estimate_order_probability(scenario: ScenarioConfig, pair: tuple[int, int],
                               n_trials: int, base_seed: int,
                               confidence: float = DEFAULT_CONFIDENCE,
                               jobs: int = 1) -> FairnessReport:
    """Estimate Pr[pair[0] precedes pair[1]] over seeds base_seed..base_seed+n-1,
    each run under the scenario's policy.

    Deterministic for fixed inputs; trials may be split across at most
    ``os.cpu_count()`` worker processes since counts merge by addition.
    Raises LivenessError if either request is missing from any run's
    final order.
    """
    if n_trials <= 0:
        raise ParameterError("n_trials must be positive")
    prep = prepare(scenario)
    # the scenario's ``deliveries``: as perceived before the mechanism
    pre_mechanism = {e.request.id: e.request for e in prep.plan}
    if pair[0] not in pre_mechanism or pair[1] not in pre_mechanism:
        raise ParameterError(f"pair {pair} not found in scenario requests")

    # The pool starts all its workers at once, so more than the cores only costs processes.
    jobs = min(jobs, os.cpu_count() or 1)
    chunks = _seed_chunks(base_seed, n_trials, jobs)
    if jobs <= 1 or len(chunks) == 1:
        results = [pair_count(prep, pair, lo, hi) for lo, hi in chunks]
    else:
        # Importing the pool loads multiprocessing and some 30 other modules: only a run
        # that starts a pool pays for them.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(pair_count, *zip(*[(prep, pair, lo, hi)
                                                       for lo, hi in chunks])))
    count = sum(c for c, _ in results)
    for _, missing in results:
        if missing is not None:
            raise LivenessError(
                f"request pair {pair} incomplete in final order at seed {missing}"
            )

    part = scenario.partition
    sa = score(pre_mechanism[pair[0]], part)
    sb = score(pre_mechanism[pair[1]], part)
    p_hat = count / n_trials
    return FairnessReport(
        pair=pair,
        n_trials=n_trials,
        count_first=count,
        p_hat=p_hat,
        ratio_hat=p_hat / (1.0 - p_hat) if p_hat < 1.0 else math.inf,
        k=k_distance(sa, sb, scenario.lam),
        k_relev=abs(sa.relev - sb.relev) / scenario.lam,
        confidence=confidence,
        confidence_radius=hoeffding_radius(n_trials, confidence),
        in_contract=check_noise_bound(list(pre_mechanism.values()), part, scenario.lam),
    )


def _seed_chunks(base_seed: int, n_trials: int, jobs: int) -> list[tuple[int, int]]:
    jobs = max(1, jobs)
    per = max(1, n_trials // (jobs * 4)) if jobs > 1 else n_trials
    return [(lo, min(lo + per, base_seed + n_trials))
            for lo in range(base_seed, base_seed + n_trials, per)]


def certify_scenario(scenario: ScenarioConfig, n_trials: int, base_seed: int,
                     jobs: int = 1) -> FairnessReport:
    """``trials.pair``'s estimate at ``trials.confidence`` over seeds base_seed..+n-1,
    certified against its mechanism's bound (the fair policy's noise, else the scenario's):
    additive if uniform (its delta, else ``uniform_delta``); else at its epsilon (1 if
    none) with k = ``trials.force_k``, else adjacent at relevant gap 0, else the report's k."""
    trials = scenario.trials
    if trials is None or trials.pair is None:
        raise ParameterError("certify needs a trials block with a pair")
    report = estimate_order_probability(scenario, trials.pair, n_trials, base_seed,
                                        confidence=trials.confidence, jobs=jobs)
    noise = scenario.noise
    if isinstance(scenario.policy, FairPolicy) and scenario.policy.spec is not None:
        noise = scenario.policy.spec
    if noise is not None and noise.kind is NoiseKind.UNIFORM:
        delta = uniform_delta(scenario.lam, noise.bound) if noise.delta is None else noise.delta
        return certify_additive(report, 0.0, delta)
    epsilon = noise.epsilon if noise is not None else 1.0
    if trials.force_k is None and report.k_relev == 0:
        return certify_ordering_equality(report, epsilon)
    return certify_k_ordering_equality(report, epsilon, k=trials.force_k)


def _verdict(q: float, thr: float, radius: float) -> str:
    if radius >= 0.5:
        return INCONCLUSIVE
    if q <= thr + radius:
        return PASS
    if q <= thr + DEFAULT_WIDEN * radius:
        return INCONCLUSIVE
    return FAIL


def _exp_bound(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _certified(report: FairnessReport, epsilon: float, bound: float,
               delta: float | None) -> FairnessReport:
    if math.isinf(bound):
        thr = 1.0  # vacuous bound: every probability satisfies it
    else:
        thr = (bound + (delta or 0.0)) / (1.0 + bound)
    q = max(report.p_hat, 1.0 - report.p_hat)
    verdict = _verdict(q, thr, report.confidence_radius)
    return replace(report, epsilon=epsilon, bound=bound, additive_delta=delta,
                   verdict=verdict)


def certify_ordering_equality(report: FairnessReport, epsilon: float) -> FairnessReport:
    """Certify the adjacent-pair bound Pr[a<b] <= e^eps * Pr[b<a].

    Only valid for adjacent pairs (identical relevant values); callers
    with a relevant-feature gap must use the k variant.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if report.k_relev > 0:
        raise MisuseError(
            f"pair {report.pair} is not adjacent (relevant gap k={report.k_relev:g}); "
            "use certify_k_ordering_equality"
        )
    return _certified(report, epsilon, _exp_bound(epsilon), None)


def certify_k_ordering_equality(report: FairnessReport, epsilon: float,
                                k: float | None = None) -> FairnessReport:
    """Certify the graceful-degradation bound with B = e^(k*eps).

    ``k`` defaults to the report's normalized pre-mechanism score gap.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    k = report.k if k is None else k
    if k < 0:
        raise ParameterError("k must be non-negative")
    return _certified(report, epsilon, _exp_bound(k * epsilon), None)


def certify_additive(report: FairnessReport, epsilon: float, delta: float) -> FairnessReport:
    """Certify Pr[a<b] <= e^eps * Pr[b<a] + delta (both directions)."""
    if epsilon < 0:
        raise ParameterError("epsilon must be non-negative")
    if not 0.0 <= delta <= 1.0:
        raise ParameterError("delta must lie in [0, 1]")
    return _certified(report, epsilon, _exp_bound(epsilon), delta)
