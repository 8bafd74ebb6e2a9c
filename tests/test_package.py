"""Package surface: what `import diskxray` pulls in."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_needs_no_scipy():
    # the runtime depends on numpy only; scipy is a test extra
    code = (
        "import sys, diskxray; "
        "print(diskxray.__file__); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "diskxray"
    assert out[1] == "[]"


def test_public_surface_pinned():
    # every exported name resolves, once; the symmetry classifier, wrong
    # at strong curvature, names only tests called, the torus steps
    # behind c_minus/p_minus, the geodesic quadrature plan, the scalar
    # boundary-point wrappers, the two per-kind inner products (now
    # the one `inner`), the value-space S_A split `symmetrize` (now
    # part of project_to_range's one spectrum pass), and the names that
    # only tests reached (W_n, the closed-form norms, the projector's
    # multiplier, S_A on angles and on grids, the disk-grid reader) and
    # the per-value CSV formatter `fmt` (every CSV goes through `_g17`)
    # are gone from the package and their modules
    import diskxray
    from diskxray import basis, boundary, fileio, geometry, xray

    assert all(hasattr(diskxray, name) for name in diskxray.__all__)
    assert len(set(diskxray.__all__)) == len(diskxray.__all__) == 34
    assert "inner" in diskxray.__all__
    torus = ("TorusGrid", "extend", "scattering_pullback", "hilbert", "restrict_star",
             "c_minus_torus", "p_minus_torus")
    for gone, module in (("classify", boundary), ("SymmetryClass", boundary),
                         ("BasisIndex", basis), ("antipodal_scattering", geometry),
                         ("GeodesicQuad", xray), ("FanBeamPoint", geometry),
                         ("scattering", geometry), ("footpoint", geometry),
                         ("_forward_batch", xray), ("boundary_inner", xray), ("disk_inner", xray),
                         ("_check_same_boundary", xray), ("symmetrize", boundary),
                         ("cheb_w", basis), ("norms", basis), ("projection_rule", boundary),
                         ("sa_pullback", boundary), ("antipodal_scattering_angles", geometry),
                         ("read_diskgrid_csv", fileio), ("_read_grid_csv", fileio), ("fmt", fileio),
                         *((name, boundary) for name in torus)):
        assert gone not in diskxray.__all__
        assert not hasattr(diskxray, gone) and not hasattr(module, gone)
    # fiber factors have one formula, not a table with a fallback, the
    # range basis is one per parity, not one per beta bin, and no code
    # read the boundary conformal factor c1 = 1 + kappa
    assert not hasattr(xray._FiberPlan(0.4, 16, 16), "_table")
    assert not hasattr(xray._FiberPlan, "_q")
    assert not hasattr(geometry.CurvatureParam(0.4), "c1")


def test_grid_functions_take_kappa_from_the_grid():
    # a function takes cp only when none of its arguments carries kappa:
    # grid functions read it from the grid, so no mismatch can be passed in
    from diskxray import boundary, xray

    no_cp = (xray.sinogram, xray.analyze, xray.synthesize, xray.invert, xray._fiber_plan,
             boundary.c_minus, boundary.p_minus, boundary.project_to_range,
             boundary.moment_residuals)
    for fn in no_cp:
        assert "cp" not in inspect.signature(fn).parameters, fn.__name__
    assert "max_normalized" in {f.name for f in dataclasses.fields(boundary.MomentReport)}
    for fn in (xray.adjoint_sharp, xray.forward, xray.singular_value, xray.boundary_grid,
               xray.disk_grid):
        assert "cp" in inspect.signature(fn).parameters, fn.__name__
    assert list(inspect.signature(xray.adjoint_sharp).parameters) == ["g", "z", "cp", "n_theta"]
