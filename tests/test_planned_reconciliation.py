"""Reconciliation as planned runs see it, on criterion 5's grid: how many
runs meet the target, how many end with the keys verified equal, and how
many leak no more than the extractor assumed (f_max * l * h(p_hat)).

The grid is criterion 5's (tests/test_acceptance.py), run on a seed base
of its own. The first two counts are asserted. The third is only printed:
whether a run that leaks more than the bound may still deliver a key is
an open question of the security model (ROADMAP item 1).
"""

from test_acceptance import BASE_SEED, LINK, SEC

from vlbb84.link_model import channel_at, effective_flip
from vlbb84.planner import COUNT, FRACTION, SQRT, plan
from vlbb84.protocol import derive_seed, run_protocol
from vlbb84.reconcile import leakage_upper_bound

SEED_BASE = BASE_SEED + 10
TARGETS = (500, 1000)
KINDS = (FRACTION, COUNT, SQRT)
DISTANCES = (5.0, 17.0, 29.0, 41.0, 53.0, 65.0)
ITERS = 20
RUNS = len(TARGETS) * len(KINDS) * len(DISTANCES) * ITERS


def test_planned_runs_are_verified():
    met = verified = within = total = 0
    for m_f in TARGETS:
        for kind in KINDS:
            for d in DISTANCES:
                the_plan = plan(d, m_f, kind, LINK, SEC)
                p_hat = effective_flip(channel_at(LINK, d).P_flip,
                                       the_plan.P_extra_opt)
                for _ in range(ITERS):
                    r = run_protocol(LINK, SEC, d, the_plan.N_F,
                                     the_plan.strategy, the_plan.P_extra_opt,
                                     derive_seed(SEED_BASE, total))
                    total += 1
                    met += r.m >= m_f
                    verified += r.verified
                    within += not r.aborted and r.n_exp <= (
                        leakage_upper_bound(r.l, p_hat, SEC))
    assert total == RUNS
    assert met >= 0.95 * total, f"target met in only {met}/{total} runs"
    assert verified >= 0.95 * total, f"verified in only {verified}/{total} runs"
    print(f"[INFO] planned runs on criterion 5's grid: target met {met}, "
          f"verified {verified}, within f_max*l*h(p_hat) {within}, "
          f"of {total}")
