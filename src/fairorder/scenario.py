"""Scenario configuration: the single document describing an experiment.

A scenario fixes the feature geometry (count, relevant partition, which
irrelevant index absorbs delays and bribes), the request population per
client, the delay model, adversary specs, the noise mechanism, the
policy, and the optional multi-server and trials blocks. Scenarios are
plain JSON on disk. On load, a document is checked against one table per
block (the types are in ``fairorder.schema``), and the dataclasses it
builds check the ranges and the rules that span keys. A scenario applies
its adversaries' bribes and misreports once, when it is built
(``ScenarioConfig.reported``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .adversary import ByzantineClientSpec, DelayKind, DelayModel, apply_bribe, misreport_time
from .model import (FeaturePartition, ParameterError, Request, check_noise_bound, is_finite,
                    max_eta_gap, score)
from .noise import ConfigurationError, NoiseKind, NoiseSpec
from .randomizer import ByzantineStrategy, ReplicaSet
from .schema import NUMBER, Nullable, Table, load


@dataclass(frozen=True)
class FcfsPolicy:
    pass


@dataclass(frozen=True)
class TtlPolicy:
    deadline_feature: int


DIRECTIONS = ("lowest_first", "highest_first")


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
        if self.direction not in DIRECTIONS:
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
    base_seed: int = 0
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
class RandomizerBlock:
    """A shared-randomizer agreement sweep over consecutive instance ids."""

    replicas: ReplicaSet
    spec: NoiseSpec
    strategy: ByzantineStrategy = ByzantineStrategy.CONSTANT
    instances: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "strategy", ByzantineStrategy(self.strategy))
        if self.instances <= 0:
            raise ConfigurationError("randomizer instances must be positive")


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

    # Built at load from the fields above: the partition, and the requests as the
    # server receives them, with each client's bribe and misreport applied (pre-delay).
    partition: FeaturePartition = field(init=False, repr=False, compare=False)
    reported: tuple[Request, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            part = FeaturePartition.from_relevant(self.relevant, self.feature_count)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from exc
        object.__setattr__(self, "partition", part)
        if not is_finite(self.lam):
            raise ConfigurationError(f"lambda must be a finite number, got {self.lam!r}")
        if self.lam <= 0:
            raise ConfigurationError("lambda must be positive")
        if not 0 <= self.eta_feature < self.feature_count:
            raise ConfigurationError("eta_feature index out of range")
        if self.eta_feature in part.relevant:
            raise ConfigurationError("eta_feature must be an irrelevant index")
        if isinstance(self.policy, TtlPolicy) and not (
            0 <= self.policy.deadline_feature < self.feature_count
        ):
            raise ConfigurationError("ttl deadline feature out of range")
        if self.multi_server is not None:
            ms = self.multi_server
            ReplicaSet(ms.n, ms.f, ms.byzantine_servers)  # validates n, f and the Byzantine ids
            if len(ms.lags) != ms.n:
                raise ConfigurationError("need one lag per server")
            if any(lag < 0 for lag in ms.lags):
                raise ConfigurationError("lags must be non-negative")
        if self.trials is not None:
            if self.trials.n_trials <= 0:
                raise ConfigurationError("n_trials must be positive")
            if self.trials.force_k is not None and not is_finite(self.trials.force_k):
                raise ConfigurationError("force_k must be a finite number")
            if self.trials.force_k is not None and self.trials.force_k < 0:
                raise ConfigurationError(f"force_k must be non-negative, got {self.trials.force_k}")
            if not 0.0 < self.trials.confidence < 1.0:
                raise ConfigurationError("trials confidence must lie strictly between 0 and 1, "
                                         f"got {self.trials.confidence}")
            pair = self.trials.pair
            if pair is not None and (len(pair) != 2 or pair[0] == pair[1]):
                raise ConfigurationError(f"trials pair must be two distinct ids, got {list(pair)}")
        if self.drain_ticks is not None and self.drain_ticks < 0:
            raise ConfigurationError(f"drain_ticks must be non-negative, got {self.drain_ticks}")
        by_client = {a.client_id: a for a in self.adversaries}
        max_delay = {cid: m.max_delay() for cid, m in self.delay.per_client.items()}
        root_max_delay = self.delay.max_delay()
        issue_by_id: dict[int, int] = {}
        reported = []
        for r in self.requests:
            if r.id in issue_by_id:
                raise ConfigurationError("request ids must be unique")
            issue_by_id[r.id] = r.issue_tick
            if len(r.features) != self.feature_count:
                raise ConfigurationError(f"request {r.id} has wrong feature count")
            if not all(map(math.isfinite, r.features)):
                raise ConfigurationError(f"request {r.id} has a non-finite feature")
            adv = by_client.get(r.client_id)
            if adv is not None:
                r = misreport_time(apply_bribe(r, adv, self.eta_feature), adv, self.eta_feature)
            reported.append(r)
            # A perceived total is at most the |features| after bribes and misreports plus
            # the largest delay (an override adds none); twice that must be finite. Then no
            # adjusted score is NaN: noise is finite or +-inf, and finite plus +-inf is +-inf.
            bound = sum(map(abs, r.features))
            if r.id not in self.deliver_overrides:
                bound += max_delay.get(r.client_id, root_max_delay)
            if not math.isfinite(2.0 * bound):
                raise ConfigurationError(
                    f"request {r.id}'s perceived score can overflow: its |features| after "
                    f"bribes and misreports plus its largest delay is {bound:g}, over half "
                    "the float range")
        object.__setattr__(self, "reported", tuple(reported))
        unknown = self.deliver_overrides.keys() - issue_by_id.keys()
        if unknown:
            raise ConfigurationError(f"deliver_overrides reference unknown ids {sorted(unknown)}")
        for rid, tick in self.deliver_overrides.items():
            if tick is not None and tick < issue_by_id[rid]:
                raise ConfigurationError(
                    f"request {rid} cannot be delivered at tick {tick} before its issue "
                    f"tick {issue_by_id[rid]}"
                )

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
    part, reqs = config.partition, config.reported
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


def _request(id, features, issue_tick):  # the client fills in client_id
    return id, features, issue_tick


def _client(id, requests) -> tuple[Request, ...]:
    return tuple(Request(rid, id, features, tick) for rid, features, tick in requests)


def _scenario(**values) -> ScenarioConfig:
    """Flatten the clients' requests; a fair policy without its own noise takes the scenario's."""
    values["requests"] = tuple(r for client in values["requests"] for r in client)
    policy = values.get("policy")
    if isinstance(policy, FairPolicy) and policy.spec is None:
        values["policy"] = replace(policy, spec=values.get("noise"))
    return ScenarioConfig(**values)


def _randomizer(n, f, kind="laplace", epsilon=1.0, **block) -> RandomizerBlock:
    """Its noise defaults to Laplace at epsilon 1.0, unlike a NoiseSpec's epsilon."""
    def take(*names):
        return {name: block.pop(name) for name in names if name in block}
    return RandomizerBlock(ReplicaSet(n, f, **take("byzantine_ids")),
                           NoiseSpec(kind, epsilon, **take("sensitivity", "bound")), **block)


def _values(enum) -> tuple[str, ...]:
    return tuple(member.value for member in enum)


# One table per block (the types are listed in fairorder.schema). An absent key takes
# the default of the dataclass field it fills. Noise and delay parameters keep the
# number as written, since report.csv prints it.
NOISE = Table(NoiseSpec, {"kind": _values(NoiseKind), "epsilon": NUMBER, "sensitivity": NUMBER,
                          "bound": NUMBER, "delta": NUMBER})
DELAY = Table(DelayModel, {"kind": _values(DelayKind), "d": NUMBER, "lo": NUMBER, "hi": NUMBER,
                           "scale": NUMBER, "cap": NUMBER})
DELAY.keys["per_client"] = {int: DELAY}
POLICY = {"fcfs": Table(FcfsPolicy, {}), "ttl": Table(TtlPolicy, {"deadline_feature": int}),
          "fair": Table(FairPolicy, {"noise": NOISE, "direction": DIRECTIONS}, {"noise": "spec"})}
REQUEST = Table(_request, {"id": int, "features": [float], "issue_tick": int}, of=Request)
CLIENT = Table(_client, {"id": int, "requests": [REQUEST]})
ADVERSARY = Table(ByzantineClientSpec, {"client_id": int, "time_misreport": int, "bribe": float})
MULTI_SERVER = Table(MultiServerBlock, {"n": int, "f": int, "lags": [int],
                                        "byzantine_servers": [int]})
TRIALS = Table(TrialsBlock, {"n_trials": int, "base_seed": int, "confidence": float,
                             "pair": [int], "force_k": float})
SCENARIO = Table(_scenario, {
    "feature_count": int, "relevant": [int], "lambda": float, "clients": [CLIENT],
    "eta_feature": int, "delay": DELAY, "adversaries": [ADVERSARY], "noise": NOISE,
    "policy": POLICY, "drain_ticks": int, "stability_gating": bool, "assume_noise_bound": bool,
    "deliver_overrides": {int: Nullable(int)}, "fee_mode": bool, "fee_gap_lint_multiplier": float,
    "multi_server": MULTI_SERVER, "trials": TRIALS,
}, {"lambda": "lam", "clients": "requests"}, of=ScenarioConfig)
SWEEP = Table(SweepBlock, {"epsilons": [float], "gaps": [float], "n_trials": int,
                           "base_seed": int, "lambda": float}, {"lambda": "lam"})
RANDOMIZER = Table(_randomizer, {
    "n": int, "f": int, "byzantine": [int], "kind": _values(NoiseKind), "epsilon": float,
    "sensitivity": float, "bound": NUMBER, "strategy": _values(ByzantineStrategy),
    "instances": int,
}, {"byzantine": "byzantine_ids"}, of=ReplicaSet)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    return load(SCENARIO, doc)


def _block(doc, name: str, table: Table, missing: str):
    """The ``name`` block of a config document, built by ``table``."""
    block = doc.get(name) if isinstance(doc, dict) else None
    if not block or not isinstance(block, dict):
        raise ConfigurationError(missing)
    return load(table, block, name)


def sweep_from_dict(doc) -> SweepBlock:
    return _block(doc, "sweep", SWEEP, "sweep needs a 'sweep' block with epsilons and gaps")


def randomizer_from_dict(doc) -> RandomizerBlock:
    return _block(doc, "randomizer", RANDOMIZER, "config lacks a 'randomizer' block")


def read_input(path: str | Path, what: str = "config", parse=json.loads):
    """``parse`` of the UTF-8 text in ``path``; ``what`` names the file in errors.

    A file that cannot be read (missing, a directory), is not UTF-8, or
    that ``parse`` rejects (invalid or too deeply nested JSON, a
    malformed trace) raises one ConfigurationError.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, TraceParseError
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    return scenario_from_dict(read_input(path, "scenario"))
