"""Monte Carlo estimation and certification of ordering equality.

The estimator replays the engine across a contiguous block of seeds and
counts how often one request of a pair precedes the other. On a static
schedule it counts with the engine's exact pair kernel
(``static_pair_count``) and runs the engine only for seeds the kernel
cannot decide from two noise draws. Certifiers
then compare the estimate against a fairness bound:

  multiplicative   Pr[r before r'] <= B * Pr[r' before r],
                   with B = e^eps (adjacent pairs) or e^(k*eps)
  additive         Pr[r before r'] <= e^eps * Pr[r' before r] + delta

Both are evaluated in probability space: the bound holds for the true p
iff max(p, 1-p) <= thr where thr = (B + delta) / (1 + B). The verdict
is three-valued. With q = max(p_hat, 1 - p_hat), R the Hoeffding
confidence radius of the estimate, and W a widened margin (3R by
default):

  pass          q <= thr + R
  inconclusive  thr + R < q <= thr + W, or the sample is degenerate
                (R >= 0.5, the interval spans most of [0, 1])
  fail          q > thr + W

A true p exactly on the bound therefore passes with probability at
least the configured confidence, a bound violated by more than the
widened margin fails, and estimates in between refuse to commit. Exact
boundary cases (k = 0) can never be statistically *confirmed*, only
refuted, which is why the pass zone extends one radius past the
threshold.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .engine import Prepared, prepare, run_prepared, static_pair_count
from .model import ParameterError, check_noise_bound, k_distance, score
from .scenario import Policy, ScenarioConfig

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


def _count_chunk(prep: Prepared, pair: tuple[int, int], seed_lo: int, seed_hi: int):
    if prep.static_schedule is not None:
        return static_pair_count(prep, pair, seed_lo, seed_hi)
    a, b = pair
    count = 0
    missing = None
    for seed in range(seed_lo, seed_hi):
        order = run_prepared(prep, seed, record=False).final_order
        try:
            if order.index(a) < order.index(b):
                count += 1
        except ValueError:
            if missing is None:
                missing = seed
    return count, missing


def estimate_order_probability(scenario: ScenarioConfig, policy: Policy | None,
                               pair: tuple[int, int], n_trials: int, base_seed: int,
                               confidence: float = DEFAULT_CONFIDENCE,
                               jobs: int = 1) -> FairnessReport:
    """Estimate Pr[pair[0] precedes pair[1]] over seeds base_seed..base_seed+n-1.

    Deterministic for fixed inputs; trials may be split across worker
    processes since counts merge by addition. Raises LivenessError if
    either request is missing from any run's final order.
    """
    if n_trials <= 0:
        raise ParameterError("n_trials must be positive")
    prep = prepare(scenario, policy)
    by_id = {r.id: r for r in prep.requests}
    if pair[0] not in by_id or pair[1] not in by_id:
        raise ParameterError(f"pair {pair} not found in scenario requests")

    chunks = _seed_chunks(base_seed, n_trials, jobs)
    if jobs <= 1 or len(chunks) == 1:
        results = [_count_chunk(prep, pair, lo, hi) for lo, hi in chunks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_count_chunk, *zip(*[(prep, pair, lo, hi)
                                                         for lo, hi in chunks])))
    count = sum(c for c, _ in results)
    for _, missing in results:
        if missing is not None:
            raise LivenessError(
                f"request pair {pair} incomplete in final order at seed {missing}"
            )

    part = scenario.partition
    pre_mechanism = _pre_mechanism_requests(prep)
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


def _pre_mechanism_requests(prep: Prepared):
    """Requests as the server perceives them before the DP mechanism.

    Includes adversary bribes/misreports, and constant delivery delays
    when the schedule is static; trial-varying random delays cannot be
    attributed to a single pre-mechanism score and are left out.
    """
    if prep.static_schedule is not None:
        return {r.id: r for _, r in prep.static_schedule}
    return {r.id: r for r in prep.requests}


def _verdict(q: float, thr: float, radius: float, widen: float) -> str:
    if radius >= 0.5:
        return INCONCLUSIVE
    if q <= thr + radius:
        return PASS
    if q <= thr + widen * radius:
        return INCONCLUSIVE
    return FAIL


def _exp_bound(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _certified(report: FairnessReport, epsilon: float, bound: float,
               delta: float | None, widen: float) -> FairnessReport:
    if math.isinf(bound):
        thr = 1.0  # vacuous bound: every probability satisfies it
    else:
        thr = (bound + (delta or 0.0)) / (1.0 + bound)
    q = max(report.p_hat, 1.0 - report.p_hat)
    verdict = _verdict(q, thr, report.confidence_radius, widen)
    return replace(report, epsilon=epsilon, bound=bound, additive_delta=delta,
                   verdict=verdict)


def certify_ordering_equality(report: FairnessReport, epsilon: float,
                              widen: float = DEFAULT_WIDEN) -> FairnessReport:
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
    return _certified(report, epsilon, _exp_bound(epsilon), None, widen)


def certify_k_ordering_equality(report: FairnessReport, epsilon: float,
                                k: float | None = None,
                                widen: float = DEFAULT_WIDEN) -> FairnessReport:
    """Certify the graceful-degradation bound with B = e^(k*eps).

    ``k`` defaults to the report's normalized pre-mechanism score gap.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    k = report.k if k is None else k
    if k < 0:
        raise ParameterError("k must be non-negative")
    return _certified(report, epsilon, _exp_bound(k * epsilon), None, widen)


def certify_additive(report: FairnessReport, epsilon: float, delta: float,
                     widen: float = DEFAULT_WIDEN) -> FairnessReport:
    """Certify Pr[a<b] <= e^eps * Pr[b<a] + delta (both directions)."""
    if epsilon < 0:
        raise ParameterError("epsilon must be non-negative")
    if not 0.0 <= delta <= 1.0:
        raise ParameterError("delta must lie in [0, 1]")
    return _certified(report, epsilon, _exp_bound(epsilon), delta, widen)
