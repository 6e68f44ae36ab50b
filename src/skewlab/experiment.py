"""The product-set experiment: skew corners of random product sets B x B.

It needs only numpy and `errors`, so the CLI's `experiment` job loads
neither the point model nor the verifier or the spectral modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ProductSetReport:
    beta: float
    N: int
    trials: int
    alpha: float
    mean_skew_count: float
    skew_over_n4: float
    alpha_5_2: float
    alpha_3: float
    ratio_to_alpha_5_2: Optional[float]
    ratio_to_alpha_3: Optional[float]
    mean_corner_count: float
    corners_over_n3: float
    alpha_2: float
    ratio_corners_to_alpha_2: Optional[float]


def product_set_experiment(
    beta: float, N: int, trials: int, seed: int
) -> ProductSetReport:
    """Skew corners of product sets B x B for random B of density beta.

    A product set is highly uniform yet carries only about alpha^(5/2) N^4
    skew corners (alpha = beta^2), against alpha^3 N^4 for a truly random
    set of the same density; corner counts land near alpha^2 N^3 the same
    way.  Elements of B are sampled independently with probability beta.
    With r_B the cyclic autocorrelation of B, B x B has exactly
    |B| sum_d r_B(d)^2 skew-corner tuples and sum_d r_B(d)^2 corner tuples.
    """
    if not 1 <= N <= 256:
        raise ParameterError(f"experiment needs 1 <= N <= 256, got {N}")
    if not 0 <= beta <= 1:
        raise ParameterError("beta must lie in [0, 1]")
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = np.random.default_rng(seed)
    skew_total = 0
    corner_total = 0
    for _ in range(trials):
        elems = np.flatnonzero(rng.random(N) < beta)
        r = np.bincount(((elems[:, None] - elems) % N).ravel(), minlength=N)
        squares = int((r * r).sum())
        skew_total += elems.size * squares
        corner_total += squares
    alpha = beta**2
    mean_skew = skew_total / trials
    mean_corners = corner_total / trials
    a52 = alpha**2.5
    a3 = alpha**3
    a2 = alpha**2
    return ProductSetReport(
        beta=beta,
        N=N,
        trials=trials,
        alpha=alpha,
        mean_skew_count=mean_skew,
        skew_over_n4=mean_skew / N**4,
        alpha_5_2=a52,
        alpha_3=a3,
        ratio_to_alpha_5_2=mean_skew / (a52 * N**4) if a52 else None,
        ratio_to_alpha_3=mean_skew / (a3 * N**4) if a3 else None,
        mean_corner_count=mean_corners,
        corners_over_n3=mean_corners / N**3,
        alpha_2=a2,
        ratio_corners_to_alpha_2=mean_corners / (a2 * N**3) if a2 else None,
    )
