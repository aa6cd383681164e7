"""Benchmark workloads: seed -> polaron1d config text.

Couplings are drawn from a fixed grid of values inside each workload's
range, so every input the benchmark can generate has an entry in
reference.json and its outputs can be checked against the values the
package produced when the benchmark was defined.

Each process a run launches ("child") gets its own draw, a pure function of
the seed and the child's index, so the same seed gives the same sequence of
configs.
"""

import random

DEFAULT_SEED = 1

# mean-field quench: the split-step loop dominates. t_max is a whole number of
# record intervals (record_every * dt = 0.1).
MF_COUPLINGS = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))  # 1.0 .. 2.0
MF_T_MAX = 4.0

# ED quench: N_B = 4, M = 10, total dimension 7150.
ED_COUPLINGS = tuple(round(0.2 * (i + 1), 1) for i in range(15))  # 0.2 .. 3.0
ED_T_MAX = 3.0

# effpot sweep: six distinct g_bi_final values per sweep. n_eig = 60 (the
# package's limit) keeps the stationary-state expansion complete to 1e-8 up to
# g_bi = 3.0; with the default 40, points from 2.2 up raise, so no sweep would
# run clean.
EFFPOT_COUPLINGS = tuple(round(0.1 * (i + 1), 1) for i in range(30))  # 0.1 .. 3.0
EFFPOT_POINTS = 6

_MF = """\
[system]
n_bath = 100
g_bb = 0.5
g_bi_initial = 0.0
g_bi_final = {g}

[grid]
n_points = 450
x_max = 40

[time]
dt = 5e-4
t_max = {t_max}
record_every = 200

[solver]
tier = meanfield

[output]
directory = {directory}
"""

_ED = """\
[system]
n_bath = 4
g_bb = 0.5
g_bi_initial = 0.0
g_bi_final = {g}

[grid]
n_points = 450
x_max = 40

[time]
dt = 0.05
t_max = {t_max}
record_every = 2

[solver]
tier = ed

[solver.ed]
n_modes = 10

[output]
directory = {directory}
"""

_EFFPOT = """\
[system]
n_bath = 100
g_bb = 0.5
g_bi_initial = 0.0

[grid]
n_points = 450
x_max = 40

[time]
dt = 0.02
t_max = 100

[solver]
tier = effpot

[solver.effpot]
source = relaxed
n_eig = 60

[sweep]
parameter = g_bi_final
values = {g}
pipeline = quench

[output]
directory = {directory}
"""


class Workload:
    """One benchmark workload: how to draw its couplings and write its config."""

    def __init__(self, name, pipeline, tier, couplings, template, points,
                 t_max=None, strata=3):
        self.name = name
        self.pipeline = pipeline  # "quench" or "sweep": the runner entry point
        self.tier = tier
        self.couplings = couplings
        self.template = template
        self.points = points  # operations per child: 1 quench or N sweep points
        self.t_max = t_max
        size = -(-len(couplings) // strata)
        self.strata = [couplings[i:i + size] for i in range(0, len(couplings), size)]

    def draw(self, seed, child):
        """Couplings for one child of a run; a pure function of (seed, child).

        The range is cut into strata and consecutive children take consecutive
        strata, so every run spreads its children over the whole range and
        a coupling-dependent cost moves the run's median little.
        """
        n = len(self.strata)
        offset = random.Random(f"{self.name}:{seed}").randrange(n)
        rng = random.Random(f"{self.name}:{seed}:{child}")
        return sorted(
            rng.choice(self.strata[(offset + child * self.points + i) % n])
            for i in range(self.points)
        )

    def config_text(self, couplings, directory):
        g = ", ".join(f"{value:.1f}" for value in couplings)
        return self.template.format(g=g, t_max=self.t_max, directory=directory)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mf-quench", "quench", "meanfield",
            MF_COUPLINGS, _MF, 1, MF_T_MAX,
        ),
        Workload(
            "ed-quench", "quench", "ed",
            ED_COUPLINGS, _ED, 1, ED_T_MAX,
        ),
        Workload(
            "effpot-sweep", "sweep", "effpot",
            EFFPOT_COUPLINGS, _EFFPOT, EFFPOT_POINTS, strata=EFFPOT_POINTS,
        ),
    )
}


def coupling_key(g):
    """Key of a coupling value in reference.json."""
    return f"{g:.1f}"
