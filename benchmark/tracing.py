"""Timing spans around the public functions of mslab, recorded from outside the package.

:class:`Tracer` wraps each function listed in :data:`TRACED` and rebinds
every module attribute that refers to it, so calls made through a name a
module imported with ``from .x import y`` (for example
``mslab.diagnostics.solve_exterior_fields`` or ``mslab.cli.run``) are timed
as well.  ``SpectralProfile.evaluate`` is wrapped on the class.  Spans are
kept in memory as ``[name, start, end, parent]`` and written out once the
round ends; nothing inside the package changes.
"""

import contextlib
import functools
import hashlib
import json
import sys
import time

import numpy as np

#: (defining module, attribute, span name); several checks share one span name
TRACED = (
    ("mslab.evolution", "run", "evolution.run"),
    ("mslab.evolution", "nonlinear_step", "evolution.nonlinear_step"),
    ("mslab.evolution", "linear_solve_exact", "evolution.linear_solve_exact"),
    ("mslab.field", "solve_exterior_fields", "field.solve_exterior_fields"),
    ("mslab.field", "solve_strip", "field.solve_strip"),
    ("mslab.field", "normal_velocity", "field.normal_velocity"),
    ("mslab.field", "dissipation", "field.dissipation"),
    ("mslab.geometry", "build_state", "geometry.build_state"),
    ("mslab.geometry", "to_arclength", "geometry.to_arclength"),
    ("mslab.diagnostics", "triad_series", "diagnostics.triad_series"),
    ("mslab.diagnostics", "compute_H", "diagnostics.compute_H"),
    ("mslab.diagnostics", "check_differential", "diagnostics.checks"),
    ("mslab.diagnostics", "check_algebraic", "diagnostics.checks"),
    ("mslab.diagnostics", "check_lyapunov", "diagnostics.checks"),
    ("mslab.cli", "cmd_simulate", "cli.simulate"),
    ("mslab.cli", "cmd_verify", "cli.verify"),
)


class Tracer:
    """Span recorder plus the two work counters measured at layer boundaries.

    ``point_modes`` adds points x N for every ``SpectralProfile.evaluate``
    call; ``solved_states`` holds a digest of the height samples of every
    state passed to ``solve_exterior_fields``.
    """

    def __init__(self):
        self.spans = []
        self.point_modes = 0
        self.solved_states = set()
        self._open = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _count_evaluate(self, profile, points):
        self.point_modes += int(np.size(points)) * profile.grid.num_points

    def _count_state(self, state, *_):
        digest = hashlib.blake2b(state.h.samples.tobytes(), digest_size=16).digest()
        self.solved_states.add(digest)

    def install(self):
        """Rebind every traced function in every loaded mslab module."""
        modules = [m for n, m in sys.modules.items() if n == "mslab" or n.startswith("mslab.")]
        for modname, attr, name in TRACED:
            original = getattr(sys.modules[modname], attr)
            count = self._count_state if attr == "solve_exterior_fields" else None
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original))
        profile_cls = sys.modules["mslab.spectral"].SpectralProfile
        original = profile_cls.evaluate
        profile_cls.evaluate = self._wrap("spectral.evaluate", original, self._count_evaluate)
        self._restore.append((profile_cls, "evaluate", original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path, origin):
        """Write the spans, with times relative to ``origin``, as JSON."""
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows}, handle)


def summarize(spans):
    """Per span name: calls, total seconds, self seconds and each duration.

    Self time is a span's duration minus the time its direct children
    cover; spans nest and do not overlap, since a round is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
        entry["durations"].append(end - start)
    return out

