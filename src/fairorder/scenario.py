"""Scenario configuration: the single document describing an experiment.

A scenario fixes the feature geometry (count, relevant partition, which
irrelevant index absorbs delays and bribes), the request population per
client, the delay model, adversary specs, the noise mechanism, the
policy, and the optional multi-server and trials blocks. Scenarios are
plain JSON on disk; everything is validated on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .adversary import ByzantineClientSpec, DelayModel
from .model import (FeaturePartition, ParameterError, Request, check_noise_bound, is_finite,
                    max_eta_gap, score)
from .noise import ConfigurationError, NoiseSpec


@dataclass(frozen=True)
class FcfsPolicy:
    pass


@dataclass(frozen=True)
class TtlPolicy:
    deadline_feature: int


@dataclass(frozen=True)
class FairPolicy:
    """Noise-adjusted minimum-score selection.

    ``spec`` None means the degenerate zero-noise variant. Direction
    ``lowest_first`` is the default ascending order; fee scenarios use
    ``highest_first`` so larger fees are sequenced earlier.
    """

    spec: NoiseSpec | None = None
    direction: str = "lowest_first"

    def __post_init__(self):
        if self.direction not in ("lowest_first", "highest_first"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")


Policy = FcfsPolicy | TtlPolicy | FairPolicy


@dataclass(frozen=True)
class MultiServerBlock:
    n: int
    f: int
    lags: tuple[int, ...]
    byzantine_servers: tuple[int, ...] = ()


@dataclass(frozen=True)
class TrialsBlock:
    n_trials: int
    base_seed: int
    confidence: float = 0.99
    pair: tuple[int, int] | None = None
    force_k: float | None = None  # override the derived k when certifying


@dataclass(frozen=True)
class SweepBlock:
    """An (epsilon x gap) certification grid over the canonical pair scenario."""

    epsilons: tuple[float, ...]
    gaps: tuple[float, ...]
    n_trials: int = 10000
    base_seed: int = 0
    lam: float = 1.0

    def __post_init__(self):
        if not self.epsilons or not self.gaps:
            raise ConfigurationError("sweep needs a 'sweep' block with epsilons and gaps")
        for name, values in (("epsilons", self.epsilons), ("gaps", self.gaps),
                             ("lambda", (self.lam,))):
            if not all(map(is_finite, values)):
                raise ConfigurationError(f"sweep {name} must be finite numbers")
        if min(self.epsilons) <= 0 or self.lam <= 0:
            raise ConfigurationError("sweep epsilons and lambda must be positive")
        if min(self.gaps) < 0:
            raise ConfigurationError("sweep gaps must be non-negative")
        if self.n_trials <= 0:
            raise ConfigurationError("sweep n_trials must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    feature_count: int
    relevant: tuple[int, ...]
    lam: float
    requests: tuple[Request, ...]
    eta_feature: int
    delay: DelayModel = DelayModel()
    adversaries: tuple[ByzantineClientSpec, ...] = ()
    noise: NoiseSpec | None = None
    policy: Policy = FcfsPolicy()
    drain_ticks: int | None = None
    stability_gating: bool = True
    assume_noise_bound: bool = True
    deliver_overrides: dict[int, int | None] = field(default_factory=dict)
    fee_mode: bool = False
    fee_gap_lint_multiplier: float = 10.0
    multi_server: MultiServerBlock | None = None
    trials: TrialsBlock | None = None

    def __post_init__(self):
        part = self.partition  # validates relevant indices
        if not is_finite(self.lam):
            raise ConfigurationError(f"lambda must be a finite number, got {self.lam!r}")
        if self.lam <= 0:
            raise ConfigurationError("lambda must be positive")
        if not 0 <= self.eta_feature < self.feature_count:
            raise ConfigurationError("eta_feature index out of range")
        if self.eta_feature in part.relevant:
            raise ConfigurationError("eta_feature must be an irrelevant index")
        ids = [r.id for r in self.requests]
        if len(ids) != len(set(ids)):
            raise ConfigurationError("request ids must be unique")
        for r in self.requests:
            if len(r.features) != self.feature_count:
                raise ConfigurationError(f"request {r.id} has wrong feature count")
            if not all(map(math.isfinite, r.features)):
                raise ConfigurationError(f"request {r.id} has a non-finite feature")
        if isinstance(self.policy, TtlPolicy) and not (
            0 <= self.policy.deadline_feature < self.feature_count
        ):
            raise ConfigurationError("ttl deadline feature out of range")
        if self.multi_server is not None:
            ms = self.multi_server
            if ms.n < 3 * ms.f + 1:
                raise ConfigurationError("multi-server block requires n >= 3f + 1")
            if len(ms.lags) != ms.n:
                raise ConfigurationError("need one lag per server")
            if any(lag < 0 for lag in ms.lags):
                raise ConfigurationError("lags must be non-negative")
        if self.trials is not None:
            if self.trials.n_trials <= 0:
                raise ConfigurationError("n_trials must be positive")
            if self.trials.force_k is not None and not is_finite(self.trials.force_k):
                raise ConfigurationError("force_k must be a finite number")
        unknown = {o for o in self.deliver_overrides} - set(ids)
        if unknown:
            raise ConfigurationError(f"deliver_overrides reference unknown ids {sorted(unknown)}")
        issue_by_id = {r.id: r.issue_tick for r in self.requests}
        for rid, tick in self.deliver_overrides.items():
            if tick is not None and tick < issue_by_id[rid]:
                raise ConfigurationError(
                    f"request {rid} cannot be delivered at tick {tick} before its issue "
                    f"tick {issue_by_id[rid]}"
                )

    @property
    def partition(self) -> FeaturePartition:
        try:
            return FeaturePartition.from_relevant(self.relevant, self.feature_count)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from exc

    def build_requests(self) -> tuple[Request, ...]:
        """Requests with adversary bribes and misreports applied (pre-delay)."""
        from .adversary import apply_bribe, misreport_time

        by_client = {a.client_id: a for a in self.adversaries}
        out = []
        for r in self.requests:
            adv = by_client.get(r.client_id)
            if adv is not None:
                r = apply_bribe(r, adv, self.eta_feature)
                r = misreport_time(r, adv, self.eta_feature)
            out.append(r)
        return tuple(out)

    def drain(self) -> int:
        if self.drain_ticks is not None:
            return self.drain_ticks
        return math.ceil(self.delay.max_delay()) + 1


def two_request_gap_scenario(gap: float = 0.0, epsilon: float = 1.0, lam: float = 1.0,
                             kind: str = "laplace", bound: float | None = None,
                             eta_a: float = 0.0, eta_b: float = 0.0,
                             direction: str = "lowest_first") -> ScenarioConfig:
    """Canonical pair scenario: two same-tick requests from distinct clients.

    Request 0 has relevant value 0, request 1 has relevant value
    gap*lam, and eta_a/eta_b pre-load the irrelevant feature, so the
    perceived score gap is gap*lam + (eta_b - eta_a). Used by the sweep
    command, the certification tests, and anywhere a clean two-point
    ordering distribution is needed.
    """
    spec = NoiseSpec(kind=kind, epsilon=epsilon, sensitivity=lam, bound=bound)
    requests = (
        Request(id=0, client_id=0, features=(0.0, eta_a), issue_tick=0),
        Request(id=1, client_id=1, features=(gap * lam, eta_b), issue_tick=0),
    )
    return ScenarioConfig(
        feature_count=2,
        relevant=(0,),
        lam=lam,
        requests=requests,
        eta_feature=1,
        noise=spec,
        policy=FairPolicy(spec=spec, direction=direction),
    )


def lint_scenario(config: ScenarioConfig) -> list[str]:
    """Non-fatal scenario diagnostics.

    Flags a broken noise-bound assumption (adversary magnitudes or
    declared eta gaps beyond lambda) and, in fee mode, relevant-fee
    classes that sit closer together than the configured multiple of
    lambda.
    """
    warnings: list[str] = []
    part = config.partition
    reqs = config.build_requests()
    if config.assume_noise_bound and not check_noise_bound(reqs, part, config.lam):
        warnings.append(
            "assumption-violation: adjacent eta gap exceeds lambda "
            f"(max eta gap over all pairs {max_eta_gap(reqs, part):.6g}, lambda {config.lam:.6g})"
        )
    if config.assume_noise_bound:
        delay_spread = config.delay.max_delay() - config.delay.min_delay()
        if delay_spread > config.lam:
            warnings.append(
                f"assumption-violation: delay model can spread eta by {delay_spread:.6g}, "
                f"beyond lambda {config.lam:.6g}"
            )
    if config.fee_mode:
        fees = sorted({score(r, part).relev for r in reqs})
        floor = config.fee_gap_lint_multiplier * config.lam
        for a, b in zip(fees, fees[1:]):
            if 0 < b - a < floor:
                warnings.append(
                    f"fee-gap: distinct fee classes {a:g} and {b:g} differ by less than "
                    f"{config.fee_gap_lint_multiplier:g}x lambda"
                )
    return warnings


def _delay_from_json(obj) -> DelayModel:
    per_client = {
        int(cid): _delay_from_json(sub) for cid, sub in obj.get("per_client", {}).items()
    }
    return DelayModel(
        kind=obj.get("kind", "constant"),
        d=obj.get("d", 0.0),
        lo=obj.get("lo", 0.0),
        hi=obj.get("hi", 0.0),
        scale=obj.get("scale", 1.0),
        cap=obj.get("cap", 0.0),
        per_client=per_client,
    )


def _policy_from_json(obj) -> Policy:
    kind = obj.get("kind", "fcfs")
    if kind == "fcfs":
        return FcfsPolicy()
    if kind == "ttl":
        return TtlPolicy(deadline_feature=int(obj["deadline_feature"]))
    if kind == "fair":
        spec = None
        if obj.get("noise") is not None:
            spec = _noise_from_json(obj["noise"])
        return FairPolicy(spec=spec, direction=obj.get("direction", "lowest_first"))
    raise ConfigurationError(f"unknown policy kind {kind!r}")


def _noise_from_json(obj) -> NoiseSpec:
    return NoiseSpec(
        kind=obj["kind"],
        epsilon=obj.get("epsilon", 2.0),
        sensitivity=obj.get("sensitivity", 1.0),
        bound=obj.get("bound"),
        delta=obj.get("delta"),
    )


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    try:
        requests = []
        for client in doc["clients"]:
            cid = int(client["id"])
            for r in client["requests"]:
                requests.append(
                    Request(
                        id=int(r["id"]),
                        client_id=cid,
                        features=tuple(float(x) for x in r["features"]),
                        issue_tick=int(r["issue_tick"]),
                    )
                )
        noise = _noise_from_json(doc["noise"]) if doc.get("noise") else None
        policy_doc = dict(doc.get("policy", {"kind": "fcfs"}))
        if policy_doc.get("kind") == "fair" and "noise" not in policy_doc:
            policy_doc["noise"] = doc.get("noise")
        ms = None
        if doc.get("multi_server"):
            b = doc["multi_server"]
            ms = MultiServerBlock(
                n=int(b["n"]),
                f=int(b["f"]),
                lags=tuple(int(x) for x in b["lags"]),
                byzantine_servers=tuple(int(x) for x in b.get("byzantine_servers", ())),
            )
        trials = None
        if doc.get("trials"):
            b = doc["trials"]
            trials = TrialsBlock(
                n_trials=int(b["n_trials"]),
                base_seed=int(b.get("base_seed", 0)),
                confidence=float(b.get("confidence", 0.99)),
                pair=tuple(int(x) for x in b["pair"]) if b.get("pair") else None,
                force_k=float(b["force_k"]) if b.get("force_k") is not None else None,
            )
        overrides = {
            int(k): (None if v is None else int(v))
            for k, v in doc.get("deliver_overrides", {}).items()
        }
        return ScenarioConfig(
            feature_count=int(doc["feature_count"]),
            relevant=tuple(int(i) for i in doc["relevant"]),
            lam=float(doc["lambda"]),
            requests=tuple(requests),
            eta_feature=int(doc["eta_feature"]),
            delay=_delay_from_json(doc.get("delay", {})),
            adversaries=tuple(
                ByzantineClientSpec(
                    client_id=int(a["client_id"]),
                    time_misreport=int(a.get("time_misreport", 0)),
                    bribe=float(a.get("bribe", 0.0)),
                )
                for a in doc.get("adversaries", ())
            ),
            noise=noise,
            policy=_policy_from_json(policy_doc),
            drain_ticks=doc.get("drain_ticks"),
            stability_gating=bool(doc.get("stability_gating", True)),
            assume_noise_bound=bool(doc.get("assume_noise_bound", True)),
            deliver_overrides=overrides,
            fee_mode=bool(doc.get("fee_mode", False)),
            fee_gap_lint_multiplier=float(doc.get("fee_gap_lint_multiplier", 10.0)),
            multi_server=ms,
            trials=trials,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"malformed scenario: {exc}") from exc


def sweep_from_dict(doc) -> SweepBlock:
    """The validated ``sweep`` block of a sweep config document."""
    grid = doc.get("sweep") if isinstance(doc, dict) else None
    if not isinstance(grid, dict):
        raise ConfigurationError("sweep needs a 'sweep' block with epsilons and gaps")
    try:
        return SweepBlock(
            epsilons=tuple(float(e) for e in grid.get("epsilons") or ()),
            gaps=tuple(float(n) for n in grid.get("gaps") or ()),
            n_trials=int(grid.get("n_trials", 10000)),
            base_seed=int(grid.get("base_seed", 0)),
            lam=float(grid.get("lambda", 1.0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"malformed sweep block: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)
