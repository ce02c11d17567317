"""fairorder: a deterministic simulator and statistical certifier for
noise-based fair request ordering.

The package simulates an ordering server whose policy conceals
irrelevant request information (network delays, bribes, misreported
timestamps) behind calibrated additive noise, validates the produced
traces against the ordering validity properties, and certifies the
resulting pairwise ordering probabilities against multiplicative and
additive equality bounds via seeded Monte Carlo.
"""

from .adversary import ByzantineClientSpec, DelayKind, DelayModel, apply_bribe, apply_delay, misreport_time
from .checkers import (PolicyPredicate, Verdict, check_all, check_consistency,
                       check_monotonic_order, check_non_blocking,
                       check_order_determinism, check_policy_compliance,
                       check_strong_non_blocking, impossibility_harness)
from .engine import Event, Trace, parse_trace, run, serialize_trace, snapshots_from_events
from .model import (FeaturePartition, Request, Score, adjacent, check_noise_bound,
                    k_distance, max_eta_gap, score)
from .noise import (NoiseKind, NoiseSpec, dp_ratio_bound, laplace_order_probability,
                    order_probability_at_gap, sample, uniform_delta)
from .quorum import (QuorumView, check_prefix_consistency, global_ordered,
                     global_received, replicate_trace)
from .randomizer import (ByzantineStrategy, RandomizerOutcome, ReplicaSet,
                         check_agreement, run_randomizer)
from .scenario import (FairPolicy, FcfsPolicy, ScenarioConfig, TrialsBlock, TtlPolicy,
                       lint_scenario, load_scenario, scenario_from_dict,
                       two_request_gap_scenario)
from .stats import (FairnessReport, certify_additive, certify_k_ordering_equality,
                    certify_ordering_equality, certify_scenario, estimate_order_probability,
                    hoeffding_radius)

__version__ = "0.1.0"
