"""The package holds only what its commands run.

Under ``sys.setprofile`` the test drives ``simulate``, ``verify`` and
``rates`` through ``cli.main`` on one nonlinear and one linear
configuration (N = 512, 10 steps), then ``kernel`` and one
invalid configuration, and records every code object of the package that
is entered.  At N = 512 the bump's curvature is resolved on 256 points and
its h on fewer, so the exterior solve and H both run on a coarser grid,
and the resampling is entered as the commands use it.  Every ``def`` in
``src/mslab``, found with ``ast``, must be among them, except the entries
of :data:`ALLOWED`, each with its reason.
A function that no command runs belongs in ``tests/conftest.py``, or
nowhere.
"""

import ast
import json
import sys
from pathlib import Path

import mslab
from mslab.cli import main

PACKAGE = Path(mslab.__file__).resolve().parent

#: why the strip solver stays in the package, though no command enters it
STRIP_REFERENCE = "tests' reference; benchmark/tracing.py wraps it; leaves with ROADMAP item 1"

#: "module.qualname" of the defs no command enters, and why each stays
ALLOWED = {
    "spectral.SpectralProfile.evaluate": "benchmark/tracing.py wraps it; it leaves with the next benchmark change",
    "field.StripConfig.jacobian": STRIP_REFERENCE,
    "field._eta_coefficients": STRIP_REFERENCE,
    "field._flat_inverse": STRIP_REFERENCE,
    "field._flat_inverse.<locals>.apply": STRIP_REFERENCE,
    "field._StripOperator.__init__": STRIP_REFERENCE,
    "field._StripOperator.__call__": STRIP_REFERENCE,
    "field._strip_system": STRIP_REFERENCE,
    "field.solve_strip": STRIP_REFERENCE,
    "field.solve_exterior_fields": STRIP_REFERENCE,
    "field._eta_derivative_at_boundary": STRIP_REFERENCE,
    "field.normal_velocity": STRIP_REFERENCE,
    "field.dissipation": STRIP_REFERENCE,
    "spectral.SpectralProfile.__setattr__": "immutability guard: runs only when a caller writes to a profile",
    "geometry.InterfaceState.__setattr__": "immutability guard: runs only when a caller writes to a state",
}


def package_defs():
    """{(file, first line of the code object): "module.qualname"} of every def.

    A decorated function's code object starts at its first decorator.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def config(tmp_path, engine):
    raw = {
        "initial_data": {"preset": "gaussian_bump", "amplitude": 0.1, "width": 1.0},
        "evolution": {
            "engine": engine, "dt": 1e-3, "t_end": 1e-2, "output_every": 2,
            "grid": {"length": 16.0, "num_points": 512}, "strip": {"num_layers": 16},
        },
    }
    path = tmp_path / f"{engine}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def drive_commands(tmp_path):
    """Run every command once per engine, plus kernel and a bad config; return the exit codes."""
    codes = []
    for engine in ("nonlinear", "linear"):
        cfg = config(tmp_path, engine)
        out = tmp_path / engine
        codes.append(main(["simulate", "--config", cfg, "--out", str(out)]))
        codes.append(main(["verify", "--traj", str(out / "triad.csv"), "--config", cfg,
                           "--out", str(out / "report.json")]))
        codes.append(main(["rates", "--config", cfg, "--out", str(out / "rates.json")]))
    codes.append(main(["kernel", "--n", "64", "--length", "20", "--out", str(tmp_path / "kernel.csv")]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"initial_data": {"preset": "mode", "amplitude": 0.1}, "evolution": {}}))
    codes.append(main(["simulate", "--config", str(bad), "--out", str(tmp_path / "bad")]))
    return codes


def test_commands_enter_every_def(tmp_path, capsys):
    defs = package_defs()
    assert set(ALLOWED) <= set(defs.values()), set(ALLOWED) - set(defs.values())
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = drive_commands(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    resolved = {name: str(Path(name).resolve()) for name, _ in entered}
    entered = {(resolved[name], line) for name, line in entered}

    assert codes[0] == 0 and codes[1] in (0, 5) and codes[2] in (0, 5), codes[:3]
    assert codes[3] == 0 and codes[4] in (0, 5) and codes[5] in (0, 5), codes[3:6]
    assert codes[6:] == [0, 2], codes[6:]
    points = (tmp_path / "nonlinear" / "solver.csv").read_text().splitlines()[1:]
    assert {row.split(",")[-1] for row in points} == {"256"}
    unrun = {name for key, name in defs.items() if key not in entered}
    assert unrun - set(ALLOWED) == set(), sorted(unrun - set(ALLOWED))
    assert set(ALLOWED) <= unrun, sorted(set(ALLOWED) - unrun)
