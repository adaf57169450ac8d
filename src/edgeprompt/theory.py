"""Executable checks of the method's two separation guarantees.

Lab 1 (CSBM separation): on a two-class CSBM, an idealized GCN step
(unweighted neighbor-mean aggregation, no linear transform or activation)
moves the class centroids to distance d = |p-q|/(p+q) * ||mu1 - mu2||.
Choosing the two anchor prompts as mu1 and mu2 and per-class-pair
expected mixing scores with b11 - b22 = (T-1)(p-q)/p scales that distance
to T * d, feasible exactly for T in (1, 1 + p/|p-q|].  The lab constructs
such witnesses and verifies the ratio by Monte-Carlo simulation.

Lab 2 (edge/feature prompt equivalence): for a single-layer GIN with a
linear transform and sum readout, a feature prompt p̂ added to every node
equals an edge prompt p = (Deg + N + N*eps)/Deg * p̂ added to every edge.
The edge side runs through the real GIN layer's propagate op and
EdgePrompt's prompt term; the feature side is computed by dense matrix
algebra as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import seeded_rng
from .data import CSBMParams
from .errors import ConfigError
from .graph import Graph
from .prompts import EdgePromptPlusParams
from . import tensor as T
from .tensor import Tensor


def csbm_expected_distance(params: CSBMParams) -> float:
    """Closed-form centroid distance after one mean-aggregation step."""
    if params.p + params.q == 0:
        raise ZeroDivisionError(
            "expected distance is undefined for p = q = 0 (no edges ever form)"
        )
    return abs(params.p - params.q) / (params.p + params.q) * float(
        np.linalg.norm(params.mu1 - params.mu2)
    )


def theorem1_max_ratio(p: float, q: float) -> float:
    """Largest feasible separation gain; unbounded (inf) when p == q."""
    if p == q:
        return math.inf
    return 1.0 + p / abs(p - q)


@dataclass
class Theorem1Witness:
    """Anchor prompts {mu1, mu2} plus expected per-class-pair scores."""

    anchors: np.ndarray  # 2 x D, rows mu1 and mu2
    b11: float
    b22: float
    b12: float
    b21: float
    target_ratio: float

    def __post_init__(self):
        for name in ("b11", "b22", "b12", "b21"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"witness score {name}={v} outside [0, 1]")


def theorem1_construct_witness(params: CSBMParams, target_ratio: float) -> Theorem1Witness:
    """Scores achieving b11 - b22 = (T-1)(p-q)/p, shifted into [0, 1].

    The smaller score sits at 0 (both at 0.5 when the delta vanishes);
    the cross scores are fixed at 0.5; they cancel in the centroid
    difference, so any common value verifies.
    """
    t_max = theorem1_max_ratio(params.p, params.q)
    # the boundary case T == 1 + p/|p-q| must be admitted despite float
    # roundoff in either side of the comparison
    if not target_ratio > 1.0 or target_ratio > t_max * (1.0 + 1e-12):
        raise ConfigError(
            f"target ratio {target_ratio} outside feasible range (1, {t_max}]"
        )
    if params.p == 0:
        raise ConfigError("witness construction needs p > 0")
    delta = (target_ratio - 1.0) * (params.p - params.q) / params.p
    delta = min(max(delta, -1.0), 1.0)
    if delta == 0.0:
        b11 = b22 = 0.5
    else:
        b11, b22 = max(delta, 0.0), max(-delta, 0.0)
    return Theorem1Witness(
        anchors=np.stack([params.mu1, params.mu2]),
        b11=b11, b22=b22, b12=0.5, b21=0.5,
        target_ratio=target_ratio,
    )


@dataclass
class DistanceReport:
    """Analytic vs Monte-Carlo centroid distances and their ratio."""

    analytic_unprompted: float
    analytic_prompted: float
    empirical_unprompted: float
    empirical_unprompted_half_width: float
    empirical_prompted: float
    empirical_prompted_half_width: float
    ratio_mean: float
    ratio_half_width: float
    target_ratio: float
    tolerance: float
    n_nodes_per_class: int
    n_trials: int
    passed: bool


def _mean_and_half_width(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(1.96 * np.std(values, ddof=1) / math.sqrt(values.size))


def _pair_prompts(witness: Theorem1Witness) -> dict:
    """Expected prompt vector per (class_i, class_j): the score-weighted
    mix of the witness's two anchor prompts."""
    a1, a2 = witness.anchors[0], witness.anchors[1]
    return {
        (0, 0): witness.b11 * a1 + (1.0 - witness.b11) * a2,
        (1, 1): witness.b22 * a1 + (1.0 - witness.b22) * a2,
        (0, 1): witness.b12 * a1 + (1.0 - witness.b12) * a2,
        (1, 0): witness.b21 * a1 + (1.0 - witness.b21) * a2,
    }


def _simulate_distances(rng: np.random.Generator, params: CSBMParams,
                        e: dict) -> tuple[float, float]:
    """One CSBM draw; centroid distances of mean-aggregated features
    without and with the expected prompts.

    Works on the Bernoulli blocks directly (no edge-list materialization):
    within-class adjacency is a symmetrized strict upper triangle, the
    cross block is a full Bernoulli matrix.  Draw order is fixed:
    class-1 block, class-2 block, cross block, features.
    """
    n = params.n_per_class
    u1 = np.triu(rng.random((n, n)) < params.p, k=1).astype(np.float64)
    u2 = np.triu(rng.random((n, n)) < params.p, k=1).astype(np.float64)
    cross = (rng.random((n, n)) < params.q).astype(np.float64)
    x1 = rng.normal(size=(n, params.mu1.shape[0])) + params.mu1
    x2 = rng.normal(size=(n, params.mu2.shape[0])) + params.mu2

    def sym_mul(u, v):  # (triu + triu.T) @ v without forming the sum
        return u @ v + u.T @ v

    ones = np.ones((n, 1))
    n_same_1 = sym_mul(u1, ones)[:, 0]
    n_same_2 = sym_mul(u2, ones)[:, 0]
    n_cross_1 = (cross @ ones)[:, 0]
    n_cross_2 = (cross.T @ ones)[:, 0]
    deg1, deg2 = n_same_1 + n_cross_1, n_same_2 + n_cross_2
    sum1 = sym_mul(u1, x1) + cross @ x2
    sum2 = sym_mul(u2, x2) + cross.T @ x1
    p_sum1 = np.outer(n_same_1, e[(0, 0)]) + np.outer(n_cross_1, e[(0, 1)])
    p_sum2 = np.outer(n_same_2, e[(1, 1)]) + np.outer(n_cross_2, e[(1, 0)])
    a1, a2 = deg1 > 0, deg2 > 0
    safe1 = np.maximum(deg1, 1.0)[:, None]
    safe2 = np.maximum(deg2, 1.0)[:, None]
    d_plain = np.linalg.norm((sum1 / safe1)[a1].mean(axis=0)
                             - (sum2 / safe2)[a2].mean(axis=0))
    d_prompt = np.linalg.norm(((sum1 + p_sum1) / safe1)[a1].mean(axis=0)
                              - ((sum2 + p_sum2) / safe2)[a2].mean(axis=0))
    return float(d_plain), float(d_prompt)


def theorem1_verify(params: CSBMParams, witness: Theorem1Witness,
                    n_nodes: int = 2000, n_trials: int = 20, seed: int = 0,
                    tolerance: float = 0.05) -> DistanceReport:
    """Monte-Carlo check that the witness scales the centroid distance by T.

    ``n_nodes`` is nodes per class.  Each trial samples a fresh CSBM
    graph, mean-aggregates raw features with and without the witness's
    expected prompts (the proof's idealized GCN step), and measures the
    centroid-distance ratio.  Passes iff |mean ratio - T| <= tolerance.
    """
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    sim = CSBMParams(params.mu1, params.mu2, params.p, params.q, n_per_class=n_nodes)
    e = _pair_prompts(witness)
    d_plain = np.empty(n_trials)
    d_prompt = np.empty(n_trials)
    for t in range(n_trials):
        rng = seeded_rng(seed, t, 0x7E01)
        d_plain[t], d_prompt[t] = _simulate_distances(rng, sim, e)
    analytic = csbm_expected_distance(sim)
    ratios = d_prompt / d_plain
    emp_plain, hw_plain = _mean_and_half_width(d_plain)
    emp_prompt, hw_prompt = _mean_and_half_width(d_prompt)
    ratio_mean, ratio_hw = _mean_and_half_width(ratios)
    return DistanceReport(
        analytic_unprompted=analytic,
        analytic_prompted=witness.target_ratio * analytic,
        empirical_unprompted=emp_plain,
        empirical_unprompted_half_width=hw_plain,
        empirical_prompted=emp_prompt,
        empirical_prompted_half_width=hw_prompt,
        ratio_mean=ratio_mean,
        ratio_half_width=ratio_hw,
        target_ratio=witness.target_ratio,
        tolerance=tolerance,
        n_nodes_per_class=n_nodes,
        n_trials=n_trials,
        passed=bool(abs(ratio_mean - witness.target_ratio) <= tolerance),
    )


def lemma1_coefficient(g: Graph, epsilon: float) -> float:
    """(Deg + N + N*eps) / Deg, with Deg the directed-degree total."""
    deg_total = g.num_directed_edges
    if deg_total == 0:
        raise ZeroDivisionError(
            "edge/feature prompt equivalence is undefined on an edgeless graph "
            "(total degree is zero)"
        )
    n = g.num_nodes
    return (deg_total + n + n * epsilon) / deg_total


def theorem2_equivalence_check(g: Graph, p_hat: np.ndarray, epsilon: float,
                               weight: np.ndarray, coefficient_scale: float = 1.0) -> float:
    """Max-abs gap between sum readouts of the two prompt routes.

    Edge route: p = coeff * p̂ on every edge as an EdgePrompt, aggregated
    like a GIN layer (A x + (1+eps) x plus the prompt term), then the
    linear transform.  Feature route: p̂ added to every node feature,
    computed densely.  ``coefficient_scale`` != 1 deliberately detunes
    the coefficient (the negative control).
    """
    p_hat = np.asarray(p_hat, dtype=np.float64).reshape(1, -1)
    w = np.asarray(weight, dtype=np.float64)
    coeff = lemma1_coefficient(g, epsilon) * coefficient_scale
    x = Tensor(g.features)
    adj = g.adjacency("gin")
    prompt = EdgePromptPlusParams([Tensor(coeff * p_hat)]).aggregate(x, adj, 0)
    h_edge = T.add(T.add(T.propagate(x, adj), T.scale(x, 1.0 + epsilon)), prompt).data @ w
    a = g.dense_adjacency()
    shifted = a + (1.0 + epsilon) * np.eye(g.num_nodes)
    h_feat = shifted @ (g.features + p_hat) @ w
    return float(np.max(np.abs(h_feat.sum(axis=0) - h_edge.sum(axis=0))))


@dataclass
class EquivalenceReport:
    """Residuals over random draws, with the detuned negative control."""

    residuals: list = field(default_factory=list)
    control_residuals: list = field(default_factory=list)
    max_residual: float = 0.0
    min_control_residual: float = 0.0
    n_trials: int = 0
    passed: bool = False


def random_connected_inputs(rng: np.random.Generator, max_nodes: int):
    """A random graph with >= 1 edge plus random p̂ and weight."""
    while True:
        n = int(rng.integers(2, max_nodes + 1))
        prob = rng.uniform(0.2, 0.9)
        mask = np.triu(rng.random((n, n)) < prob, k=1)
        edges = np.argwhere(mask)
        if edges.shape[0] >= 1:
            break
    d = int(rng.integers(1, 6))
    d_out = int(rng.integers(1, 6))
    feats = rng.uniform(-1.0, 1.0, size=(n, d))
    p_hat = rng.uniform(-1.0, 1.0, size=(1, d))
    weight = rng.uniform(-1.0, 1.0, size=(d, d_out))
    return Graph(n, edges, feats), p_hat, weight


def theorem2_random_trials(n_trials: int = 100, max_nodes: int = 20, seed: int = 0,
                           eps_values=(0.0, 0.5), residual_bound: float = 1e-9,
                           control_bound: float = 1e-3) -> EquivalenceReport:
    """Run the equivalence check + 1.1x negative control on random draws."""
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if max_nodes < 2:
        raise ConfigError(f"max_nodes must be >= 2 (one edge), got {max_nodes}")
    rng = seeded_rng(seed, 0x7412)
    residuals, controls = [], []
    for t in range(n_trials):
        g, p_hat, weight = random_connected_inputs(rng, max_nodes)
        eps = eps_values[t % len(eps_values)]
        residuals.append(theorem2_equivalence_check(g, p_hat, eps, weight))
        controls.append(
            theorem2_equivalence_check(g, p_hat, eps, weight, coefficient_scale=1.1)
        )
    passed = max(residuals) < residual_bound and min(controls) > control_bound
    return EquivalenceReport(
        residuals=residuals,
        control_residuals=controls,
        max_residual=float(max(residuals)),
        min_control_residual=float(min(controls)),
        n_trials=n_trials,
        passed=bool(passed),
    )
