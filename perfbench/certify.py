"""Randomized cone certification: the batched cones/symmat path.

The round is acceptance criterion 4's sweep (``mapb:p:k`` against
``pp:p`` for dims 2-6 at 10^4 samples each, 90 relations), five more
catalogue relations with known outcomes, and the family-test
transitions through ``pp_subset_test`` and ``riesz_characteristic``.
The seed moves every relation's sample stream.
"""

from __future__ import annotations

from math import comb

import numpy as np
from conecalc import cones, symmat

from core import median, tail

SAMPLES = 10_000
EXTRA_DIM = 4


def _relations(seed):
    cases = []
    for n in range(2, 7):
        for p in range(1, min(3, n) + 1):
            for k in range(1, comb(n, p) + 1):
                cases.append((f"mapb:{p}:{k}/pp:{p}@{n}", cones.map_branch_cone(p, k, n),
                              cones.pp_cone(float(p), n), True))
    n = EXTRA_DIM
    pos = cones.positivity(n)
    cases += [
        ("pucci:1:2/p@4", cones.pucci_cone(1.0, 2.0, n), pos, True),
        ("sigma:2/p@4", cones.sigma_cone(2, n), pos, True),
        ("cbranch:1/p@4", cones.complex_branch_cone(1, n), pos, True),
        ("pdelta:0.5/p@4", cones.pdelta_cone(0.5, n), pos, True),
        # positivity is not pp:2-monotone
        ("branch:1/pp:2@4", cones.branch_cone(1, n), cones.pp_cone(2.0, n), False),
    ]
    return [
        (label, F, M, cones.SampleConfig(seed=100_000 * seed + 1000 + i, count=SAMPLES), ok)
        for i, (label, F, M, ok) in enumerate(cases)
    ]


def _transitions():
    """Acceptance criterion 4's family-test specs with their thresholds."""
    n = 4
    specs = [
        cones.positivity(n),
        cones.pp_cone(1.5, n),
        cones.pp_cone(2.0, n),
        cones.pp_cone(2.5, n),
        cones.pdelta_cone(0.1, n),
        cones.pdelta_cone(1.0, n),
        cones.pdelta_cone(2.0, n),
        cones.pucci_cone(1.0, 2.0, n),
        cones.pucci_cone(2.0, 5.0, n),
        cones.sigma_cone(1, n),
        cones.sigma_cone(2, n),
        cones.sigma_cone(3, n),
        cones.sigma_cone(4, n),
        cones.map_branch_cone(2, 1, n),
        cones.enlarged_cone(cones.pp_cone(2.0, n), 0.25),
        cones.complex_branch_cone(1, n),
        cones.horizontal_cone(symmat.Frame(np.eye(n)[:2]), n),
    ]
    out = []
    for spec in specs:
        cf = cones.closed_form_characteristic(spec)
        if spec.kind == "horiz":
            cf = 2.0  # coordinate plane, caught by the axes of the family
        out.append((spec.describe(), spec, cf))
    return out


class Certify:
    name = "certify"
    round_s = 17.0
    min_rounds = 1

    def setup(self, seed, workdir):
        return {"relations": _relations(seed), "transitions": _transitions()}

    def named_metrics(self, rounds):
        """Certified samples per second; median and tail seconds per relation."""
        times = [t for r in rounds for t in r.times.get("relation", [])]
        samples = sum(r.counts.get("samples", 0) for r in rounds)
        t_tail, pct, n = tail(times)
        return {
            "certify_samples_per_s": (samples / sum(times), "1/s"),
            "relation_p50_s": (median(times), "s"),
            "relation_tail_s": (t_tail, "s"),
            "relation_tail_percentile": (pct, "%"),
            "relation_count": (n, "count"),
        }

    def warm_up(self, inputs):
        _, F, M, cfg, _ = inputs["relations"][0]
        cones.check_relation(F, M, cones.SampleConfig(seed=cfg.seed, count=100))

    def run_round(self, inputs, rnd):
        for label, F, M, cfg, expect in inputs["relations"]:
            rep = rnd.call("relation", cones.check_relation, F, M, cfg)
            if rep is None:
                continue
            rnd.count("samples", int(rep.checked))
            if not rep.passed:
                rnd.count(f"{label}.failure_index", int(rep.failure_index))
            rnd.check(rep.passed == expect, label,
                      f"expected {'pass' if expect else 'fail'}, got "
                      f"{'pass' if rep.passed else 'fail'}")
        for label, spec, cf in inputs["transitions"]:
            dim = float(spec.dim)
            if cf is None or cf >= dim:
                probes = [(dim, True)]
            else:
                probes = [(max(1.0, cf - 1e-6), True), (cf + 1e-6, False)]
            for p, expect in probes:
                rep = rnd.call("pp_subset", cones.pp_subset_test, spec, p)
                if rep is not None:
                    rnd.check(rep.passed == expect, label,
                              f"pp_subset_test at p={p:.6f}: expected {expect}")
            rc = rnd.call("riesz_characteristic", cones.riesz_characteristic, spec)
            if rc is None:
                continue
            rnd.count(f"{label}.bisection_steps", int(rc.iterations))
            want = dim if cf is None else min(cf, dim)
            rnd.check(abs(rc.value - want) <= 1e-6, label,
                      f"riesz characteristic {rc.value:.8f}, expected {want:.8f}")
