"""Random bounded-delay scenarios and hand-written trace rows for the validity suites."""

from dataclasses import replace

from hypothesis import strategies as st

from oracles import snapshots_per_tick
from fairorder.adversary import DelayModel
from fairorder.engine import DELIVER, ISSUE, ORDER, Event, parse_trace, run
from fairorder.model import Request
from fairorder.noise import NoiseSpec
from fairorder.rng import Stream
from fairorder.scenario import FairPolicy, FcfsPolicy, ScenarioConfig, TtlPolicy


def random_scenario(rng: Stream, policy_kind: str = "fcfs") -> ScenarioConfig:
    feature_count = 2 + rng.randrange(3)
    relevant = tuple(sorted({rng.randrange(feature_count) for _ in range(1 + rng.randrange(2))}))
    irrelevant = [i for i in range(feature_count) if i not in relevant]
    if not irrelevant:
        relevant = relevant[:-1]
        irrelevant = [i for i in range(feature_count) if i not in relevant]
    eta_feature = irrelevant[rng.randrange(len(irrelevant))]

    n_clients = 1 + rng.randrange(4)
    n_requests = 1 + rng.randrange(8)
    requests = tuple(
        Request(
            id=i,
            client_id=rng.randrange(n_clients),
            features=tuple(float(rng.randrange(20)) for _ in range(feature_count)),
            issue_tick=rng.randrange(10),
        )
        for i in range(n_requests)
    )

    kind = ("constant", "uniform", "capped_heavy_tail")[rng.randrange(3)]
    if kind == "constant":
        delay = DelayModel(kind=kind, d=float(rng.randrange(4)))
    elif kind == "uniform":
        delay = DelayModel(kind=kind, lo=0.0, hi=float(1 + rng.randrange(4)))
    else:
        delay = DelayModel(kind=kind, scale=1.0, cap=float(1 + rng.randrange(5)))

    lam = 50.0
    if policy_kind == "fcfs":
        policy = FcfsPolicy()
    elif policy_kind == "ttl":
        policy = TtlPolicy(deadline_feature=rng.randrange(feature_count))
    else:
        policy = FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=lam))

    return ScenarioConfig(
        feature_count=feature_count,
        relevant=relevant,
        lam=lam,
        requests=requests,
        eta_feature=eta_feature,
        delay=delay,
        policy=policy,
        assume_noise_bound=False,
    )


@st.composite
def hand_written_rows(draw, ticks=st.integers(-2, 15)):
    """Rows in any order, negative ticks included; each id has at most one row of each kind."""
    rows = []
    for rid in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            rows.append(Event(draw(ticks), ISSUE, rid))
        if draw(st.booleans()):
            rows.append(Event(draw(ticks), DELIVER, rid))
        if draw(st.booleans()):
            rows.append(Event(draw(ticks), ORDER, rid))
    return draw(st.permutations(rows))


def rows_text(rows, header=None, final_order=None) -> str:
    """A trace file of ``rows``, with a ``horizon=`` header when ``header`` is not None.

    The order line lists ``final_order``, by default the rows' own output at
    the horizon, which is the one order line ``parse_trace`` accepts (empty
    under a negative header, which it rejects anyway).
    """
    if final_order is None:
        horizon = last_row_tick(rows) if header is None else header
        final_order = snapshots_per_tick(rows, horizon)[-1].output if horizon >= 0 else ()
    lines = [f"{ev.at_tick},{ev.kind},{ev.rid}" for ev in rows]
    if header is not None:
        lines.insert(0, f"# fairorder-trace v1 seed=0 horizon={header}")
    lines.append("order:" + ",".join(str(rid) for rid in final_order))
    return "\n".join(lines) + "\n"


def last_row_tick(rows) -> int:
    """The horizon of a file of ``rows`` without a header: the latest row tick, at least 0."""
    return max([0, *(ev.at_tick for ev in rows)])


def headers(rows):
    """No header, or a ``horizon=`` header at or past the last row: ``parse_trace``
    rejects a row past the header horizon."""
    return st.one_of(st.none(), st.integers(last_row_tick(rows), 25))


@st.composite
def hand_written_traces(draw):
    """Parsed traces of hand-written rows: no header, or one at or past the last row."""
    rows = draw(hand_written_rows())
    return parse_trace(rows_text(rows, draw(headers(rows))))


@st.composite
def engine_traces(draw):
    """Recorded runs of random scenarios under each policy, stability gating on or off."""
    kind = draw(st.sampled_from(["fcfs", "ttl", "fair"]))
    scenario = random_scenario(Stream(draw(st.integers(0, 2**32))), kind)
    scenario = replace(scenario, stability_gating=draw(st.booleans()))
    return run(scenario, seed=draw(st.integers(0, 10_000)))
