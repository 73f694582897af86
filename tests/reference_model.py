"""A second, independent implementation of the model: one agent at a time.

Written from README "Model", the firing rule in ``interventions`` (a
firing at step f takes effect from step f + 1, except a novelty reset's
reference shift, which applies at f) and the step order in the
``engine`` docstring, with plain Python floats and one scalar
xoshiro256++ generator per agent (``test_rng.RefXoshiro``).  Of the
package's computations it takes only the step-0 population
(``build_population``), C(t) (``schedule.capability_series``) and each
event schedule's per-step ``fires_at`` rule.

The floating-point operations follow the engine's order, so
``reference_csv_texts(scenario)`` must equal ``run.csv`` and
``traces.csv`` of a traced ``run(scenario)`` byte for byte.  Means and
quartiles use ``np.mean`` and ``np.percentile``, whose pairwise sums and
interpolation a plain loop would not reproduce; segment sums run left to
right in agent id order.  ln C is taken with numpy's ``log`` on the whole
series, as the engine does: numpy's SIMD transcendentals may differ from
``math``'s in the last bit.
"""

import csv
import io
from functools import reduce
from operator import add

import numpy as np

from adaptsim import rng
from adaptsim.interventions import INTERVENTION_KINDS
from adaptsim.population import ACTIVE, CHURNED, POTENTIAL, build_population
from adaptsim.schedule import capability_series
from test_rng import RefXoshiro


def _cell(v) -> str:
    return "" if v is None else repr(float(v))


class _Toggle:
    """A regime that each firing switches on or off from the next step."""

    def __init__(self):
        self.since = None  # the first step of the current on-spell

    def after(self, t: int, fired: bool):
        if fired:
            self.since = t + 1 if self.since is None else None


def reference_csv_texts(scenario) -> tuple[str, str]:
    """The run.csv and traces.csv texts of a traced run of ``scenario``."""
    horizon, n, seed = scenario.horizon, scenario.population_size, scenario.seed
    sat, churn = scenario.satisfaction, scenario.churn
    by_kind = {iv.kind: iv for iv in scenario.interventions}
    novelty = by_kind.get("novelty_reset")
    personal = by_kind.get("personalization")
    expect = by_kind.get("expectation_management")
    social = by_kind.get("social_benchmark")
    dip = by_kind.get("strategic_dip")

    def fires(iv, t: int) -> bool:
        return iv is not None and iv.schedule.fires_at(t)

    # a dip holds C(t) at C * (1 - depth) for the duration steps after each firing
    caps = [float(c) for c in capability_series(scenario.schedule, horizon)]
    caps_eff = [
        c * (1.0 - dip.depth) if dip and any(fires(dip, f) for f in range(t - dip.duration, t)) else c
        for t, c in enumerate(caps)
    ]
    log_c_eff = np.log(np.asarray(caps_eff)).tolist()

    pop = build_population(scenario.segments, n, seed, float(np.log(caps[0])))
    segment = pop.segment_index.tolist()
    gamma = pop.gamma.tolist()
    log_r = pop.log_r.tolist()
    state = [POTENTIAL] * n
    lanes = [RefXoshiro(seed, i, rng.PURPOSE_LIFECYCLE) for i in range(n)]
    rate = list(gamma)
    perception = None
    churn_live = churn.eta > 0.0 and churn.cap > 0.0
    expect_on, social_on = _Toggle(), _Toggle()
    ln_a = float(np.log(expect.announce_discount_a)) if expect else 0.0
    novelty_firings = 0
    n_churned = 0

    seg_names = [f"seg_{s.name}_mean_s" for s in scenario.segments]
    run_buf, traces_buf = io.StringIO(), io.StringIO()
    run_csv = csv.writer(run_buf, lineterminator="\n")
    run_csv.writerow(
        ["t", "capability", "capability_effective", "frac_potential", "frac_active", "frac_churned"]
        + ["mean_log_reference", "mean_satisfaction", "s_q25", "s_q75", *seg_names, "interventions_applied"]
    )
    traces_buf.write("t,agent,state,satisfaction,log_reference\n")

    for t in range(horizon):
        # adoption: each potential agent draws once against its segment's
        # hazard p + q * F, F the fraction adopted before this step
        f_prev = 1.0 - state.count(POTENTIAL) / n
        hazard = [min(max(s.bass.p + s.bass.q * f_prev, 0.0), 1.0) for s in scenario.segments]
        for i in range(n):
            if state[i] == POTENTIAL and lanes[i].uniform() < hazard[segment[i]]:
                state[i] = ACTIVE

        # the participants, the agents active after adoption, in id order;
        # s is their satisfaction against the reference before this step's update
        part = [i for i in range(n) if state[i] == ACTIVE]
        perceived = [log_c_eff[t] if perception is None else log_c_eff[t] + perception[i] for i in part]
        s = []
        for i, c in zip(part, perceived):
            g = c - log_r[i]
            s.append(sat.b + (sat.k if g >= 0.0 else sat.loss_aversion * sat.k) * g)
        if social_on.since is not None and part:
            weight = social.beta0 * float(np.exp(-(t - social_on.since) / social.tau))
            mean = float(np.mean(s))
            s = [v + weight * (v - mean) for v in s]

        churning = [False] * len(part)
        if churn_live:
            for j, i in enumerate(part):
                hazard_i = min(churn.cap, churn.eta * max(0.0, churn.s_churn - s[j]))
                churning[j] = lanes[i].uniform() < hazard_i
                if churning[j]:
                    state[i] = CHURNED
                    n_churned += 1

        # survivors move their reference toward the target and take the
        # novelty shift with the potential agents; churners keep theirs
        shift = None
        if fires(novelty, t):
            shift = novelty.decay_delta**novelty_firings * float(np.log1p(-novelty.rho))
            novelty_firings += 1
        for i, c, churned in zip(part, perceived, churning):
            target = c
            if expect_on.since is not None:
                w = expect.weight_w
                target = (1.0 - w) * c + w * (log_c_eff[t] + ln_a)
            if not churned:
                log_r[i] = log_r[i] + rate[i] * (target - log_r[i])
                if shift is not None:
                    log_r[i] += shift
        if shift is not None:
            for i in range(n):
                if state[i] == POTENTIAL:
                    log_r[i] += shift

        # this step's firings take effect from the next step
        if fires(personal, t) and perception is None:
            bonus = [RefXoshiro(seed, i, rng.PURPOSE_PERSONALIZATION).uniform() for i in range(n)]
            perception = [u * personal.max_log_mult for u in bonus]
            rate = [g * (1.0 - personal.gamma_damp_omega) for g in gamma]
        expect_on.after(t, fires(expect, t))
        social_on.after(t, fires(social, t))

        # the record: end-of-step populations, the participants' aggregates
        n_pot = state.count(POTENTIAL)
        row = [str(t), _cell(caps[t]), _cell(caps_eff[t])]
        row += [_cell(n_pot / n), _cell((n - n_pot - n_churned) / n), _cell(n_churned / n)]
        if part:
            q25, q75 = np.percentile(s, (25, 75))
            row += [_cell(np.mean([log_r[i] for i in part])), _cell(np.mean(s)), _cell(q25), _cell(q75)]
        else:
            row += [""] * 4
        for k in range(len(scenario.segments)):
            members = [v for i, v in zip(part, s) if segment[i] == k]
            row.append(_cell(reduce(add, members) / len(members)) if members else "")
        applied = [kind for kind in INTERVENTION_KINDS if fires(by_kind.get(kind), t)]
        run_csv.writerow(row + [";".join(applied)])
        sat_cells = [""] * n
        for i, v in zip(part, s):
            sat_cells[i] = _cell(v)
        for i in range(n):
            traces_buf.write(f"{t},{i},{state[i]},{sat_cells[i]},{_cell(log_r[i])}\n")
    return run_buf.getvalue(), traces_buf.getvalue()
