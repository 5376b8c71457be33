"""The traced benchmark run wraps dexroute's entry points by name; these
names must exist, `solve` must reach them, and uninstalling must put every
original back."""

import os
import sys

import dexroute as dx
from dexroute import generate, solver

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import tracer  # noqa: E402


def test_install_wraps_what_solve_calls_and_uninstall_restores():
    rec = tracer.Recorder()
    rec.install()
    try:
        saved = list(rec._saved)
        for name in ("minimize", "initial_point", "net_trade", "solve"):
            assert any(owner is solver and attr == name for owner, attr, _ in saved)
        snap = generate.generate_snapshot(16, 3)
        dx.solve(snap, dx.TotalArbitrage(snap.prices))
    finally:
        rec.uninstall()
    names = [s.name for s in rec.spans]
    assert names.count("solver.solve") == 1
    assert names.count("solver.minimize") == 1
    assert names.count("solver.initial_point") == 1
    assert names.count("core.net_trade") == 1
    assert "kernels.gmean" in names
    for owner, attr, original in saved:
        assert vars(owner).get(attr) is original, f"{owner.__name__}.{attr} not restored"
        assert not hasattr(getattr(owner, attr), "__wrapped__")
