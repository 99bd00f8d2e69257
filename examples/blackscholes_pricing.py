#!/usr/bin/env python
"""Black-Scholes option pricing by single-reducer MapReduce (§4.7).

Monte-Carlo pricing of a European call: mappers simulate discounted
payoffs (each emitting the value and its square), a single reducer keeps
running sums and produces the mean and standard deviation with the
paper's O(1)-memory identity

    sigma = sqrt(mean(x^2) - mean(x)^2)

The Monte-Carlo estimate is checked against the closed-form
Black-Scholes price.

Run:  python examples/blackscholes_pricing.py
"""

from __future__ import annotations

import math

from repro.apps import blackscholes
from repro.cluster import ClusterEngine
from repro.core import ExecutionMode
from repro.workloads import (
    OptionParams,
    black_scholes_closed_form,
    generate_mc_batches,
)


def main() -> None:
    params = OptionParams(
        spot=100.0, strike=105.0, rate=0.05, volatility=0.25, maturity=0.5
    )
    batches = generate_mc_batches(
        num_mappers=8, iterations_per_mapper=25_000, params=params, seed=2026
    )

    job = blackscholes.make_job(ExecutionMode.BARRIERLESS)
    result = ClusterEngine(workers=2).run(job, batches, num_maps=8)
    out = result.output_as_dict()

    analytic = black_scholes_closed_form(params)
    standard_error = out["stddev"] / math.sqrt(out["count"])

    print("European call:", params)
    print(f"  closed-form price     : {analytic:9.4f}")
    print(f"  Monte-Carlo estimate  : {out['mean']:9.4f}")
    print(f"  payoff std deviation  : {out['stddev']:9.4f}")
    print(f"  simulated paths       : {out['count']:,}")
    print(f"  standard error        : {standard_error:9.4f}")
    deviation = abs(out["mean"] - analytic) / standard_error
    print(f"  |MC - analytic| / SE  : {deviation:9.2f}  (should be small)")
    assert deviation < 4.0, "Monte Carlo drifted from the analytic price"
    print(
        "\nThe reducer held three floats the whole time — the O(1) "
        "partial-result footprint that makes Black-Scholes the paper's "
        "best-case barrier-less application (87% improvement)."
    )


if __name__ == "__main__":
    main()
