"""Network delay models and Byzantine client behaviors.

Delays, bribes, and misreported issue times all land in a request's
designated irrelevant feature: the server perceives only the summed
score, so environmental noise and deliberate manipulation are
indistinguishable there. Ground-truth relevant values are never
touched, which is what lets the simulation certify fairness against
these behaviors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .model import ParameterError, Request, is_finite
from .rng import Stream


class DelayKind(str, Enum):
    CONSTANT = "constant"
    UNIFORM = "uniform"
    CAPPED_HEAVY_TAIL = "capped_heavy_tail"


# An Enum member looked up on its class costs far more than a global; the samplers test these.
_CONSTANT, _UNIFORM = DelayKind.CONSTANT, DelayKind.UNIFORM


@dataclass(frozen=True)
class DelayModel:
    """Per-request network delay distribution, with per-client overrides.

    constant: always ``d`` ticks. uniform: real delay in [lo, hi].
    capped_heavy_tail: exponential with the given scale, clamped at cap.
    """

    kind: DelayKind = DelayKind.CONSTANT
    d: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    scale: float = 1.0
    cap: float = 0.0
    per_client: dict[int, "DelayModel"] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kind", DelayKind(self.kind))
        if not all(is_finite(x) for x in (self.d, self.lo, self.hi, self.scale, self.cap)):
            raise ParameterError("delay parameters must be finite numbers")
        if min(self.d, self.lo, self.hi, self.cap) < 0 or self.scale <= 0:
            raise ParameterError("delays must be non-negative and scale positive")
        if self.kind is DelayKind.UNIFORM and self.hi < self.lo:
            raise ParameterError("uniform delay needs lo <= hi")

    def for_client(self, client_id: int) -> "DelayModel":
        return self.per_client.get(client_id, self)

    def sample(self, client_id: int, rng: Stream) -> float:
        m = self.for_client(client_id)
        return m.d if m.kind is _CONSTANT else m.delay_at(rng.random())

    def delay_at(self, u: float) -> float:
        """This model's own delay at the uniform ``u`` in (0, 1), overrides aside.

        Only for a model that draws: a constant delay draws nothing.
        """
        if self.kind is _UNIFORM:
            return self.lo + (self.hi - self.lo) * u
        return min(-self.scale * math.log(u), self.cap)

    def max_delay(self) -> float:
        """Largest delay this model (or any override) can produce."""
        own = {
            DelayKind.CONSTANT: self.d,
            DelayKind.UNIFORM: self.hi,
            DelayKind.CAPPED_HEAVY_TAIL: self.cap,
        }[self.kind]
        return max([own] + [m.max_delay() for m in self.per_client.values()])

    def min_delay(self) -> float:
        """Smallest delay this model (or any override) can produce."""
        own = {
            DelayKind.CONSTANT: self.d,
            DelayKind.UNIFORM: self.lo,
            DelayKind.CAPPED_HEAVY_TAIL: 0.0,
        }[self.kind]
        return min([own] + [m.min_delay() for m in self.per_client.values()])


@dataclass(frozen=True)
class ByzantineClientSpec:
    """A misbehaving client: shifts its declared issue time and/or bribes."""

    client_id: int
    time_misreport: int = 0
    bribe: float = 0.0

    def __post_init__(self):
        if not is_finite(self.bribe) or self.bribe < 0:
            raise ParameterError("bribe must be a finite non-negative number")
        if not is_finite(self.time_misreport):  # it lands in a float feature
            raise ParameterError("time_misreport must be an integer within the float range")


def _with_eta_bump(r: Request, eta_feature: int, amount: float) -> Request:
    feats = list(r.features)
    feats[eta_feature] += amount
    return Request(r.id, r.client_id, tuple(feats), r.issue_tick, r.declared_tick)


def apply_delay(r: Request, model: DelayModel, rng: Stream, eta_feature: int) -> tuple[int, Request]:
    """Sample a delivery delay and fold it into the request's noise feature (``delayed``)."""
    return delayed(r, model.sample(r.client_id, rng), eta_feature)


def delayed(r: Request, delay: float, eta_feature: int) -> tuple[int, Request]:
    """Fold a sampled delay into the request's noise feature.

    Returns (delivery_tick, request). The real-valued delay lands in the
    eta feature; the delivery tick is issue_tick plus the delay rounded
    up (arrival cannot precede the full delay). A zero delay leaves the
    request untouched (adding 0.0 would turn a -0.0 feature into 0.0).
    """
    if not delay:
        return r.issue_tick, r
    return r.issue_tick + math.ceil(delay), _with_eta_bump(r, eta_feature, delay)


def apply_bribe(r: Request, spec: ByzantineClientSpec, eta_feature: int) -> Request:
    """Fold a side payment into the noise feature; relevant values unchanged.

    Bribes above the scenario's lambda are applied as-is; the scenario
    validator is responsible for flagging the broken noise-bound
    assumption (negative tests break it on purpose).
    """
    if spec.bribe == 0.0:
        return r
    return _with_eta_bump(r, eta_feature, spec.bribe)


def misreport_time(r: Request, spec: ByzantineClientSpec, eta_feature: int) -> Request:
    """Shift the declared issue time, keeping the true tick for diagnostics.

    The shift also lands in the noise feature: to the server it is
    indistinguishable from any other irrelevant-information bias.
    """
    if spec.time_misreport == 0:
        return r
    shifted = _with_eta_bump(r, eta_feature, float(spec.time_misreport))
    return Request(shifted.id, shifted.client_id, shifted.features, shifted.issue_tick,
                   r.issue_tick + spec.time_misreport)
