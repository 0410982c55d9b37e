"""Every module, test, benchmark script and tool parses as Python 3.10, the
oldest version CI runs (its 3.10 leg runs ``perfbench/run.py --smoke``); and
the package's GP math, its predictive law, its quadrature rule, its batch
tail fit and its extreme-level forecast stay written once."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"), *ROOT.glob("perfbench/*.py"),
     *ROOT.glob("tools/*.py")]
)


def test_files_found():
    assert any(p.name == "simlab.py" for p in FILES)
    assert any(p.name == "test_source.py" for p in FILES)
    assert any(p.name == "run.py" for p in FILES)
    assert any(p.name == "garch_compare.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _names(path: Path) -> set[str]:
    """Every name, attribute and imported name a module's code mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_zero_shape_band_lives_in_gpd():
    """``GAMMA_ZERO_TOL``, below which the GP formulas take their
    exponential limit, is named in gpd.py alone: one likelihood, one
    predictive map and the GP kernels carry that limit for every caller."""
    users = sorted(
        p.name for p in ROOT.glob("src/tailcast/*.py") if "GAMMA_ZERO_TOL" in _names(p)
    )
    assert users == ["gpd.py"]


def test_one_staged_entry_for_many_tails():
    """``predict.fit_tails`` is the one caller of ``sample_posteriors``: every
    caller that fits many tails at once goes through it."""
    users = sorted(
        p.name for p in ROOT.glob("src/tailcast/*.py") if "sample_posteriors" in _names(p)
    )
    assert users == ["predict.py"]


def test_simlab_fits_through_the_stage():
    """Only the CLI and ``predict`` itself name ``fit_tail`` (``__init__``
    exports it): simlab fits every arm through ``predict.fit_tails``."""
    users = sorted(
        p.name for p in ROOT.glob("src/tailcast/*.py") if "fit_tail" in _names(p)
    )
    assert users == ["__init__.py", "cli.py", "predict.py"]


def test_one_extreme_forecast():
    """Only ``risk`` reads a VaR point off a law (``__init__`` exports it):
    every other VaR point and extreme-level interval comes from
    ``risk.extreme_forecast``."""
    users = sorted(
        p.name for p in ROOT.glob("src/tailcast/*.py") if "var_from_predictive" in _names(p)
    )
    assert users == ["__init__.py", "risk.py"]


def test_one_predictive_law():
    """Every predictive law is a ``predict.MixturePredictive``: outside
    predict.py no class defines ``cdf`` or ``pdf``, and the only classes
    with a ``quantile`` are simlab's data families, which map uniforms to
    simulated draws."""
    found = {}
    for p in ROOT.glob("src/tailcast/*.py"):
        if p.name == "predict.py":
            continue
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), filename=str(p))):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if methods & {"cdf", "pdf", "quantile"}:
                    found[f"{p.name}:{node.name}"] = methods & {"cdf", "pdf", "quantile"}
    assert found and all(
        where.startswith("simlab.py:") and methods == {"quantile"}
        for where, methods in found.items()
    ), found


def _imports(path: Path) -> set[str]:
    """Every module a file imports, and each ``from`` import's dotted names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_one_quadrature_rule():
    """The package integrates with ``density``'s Gauss–Kronrod rule alone:
    no module imports ``scipy.integrate``."""
    users = sorted(
        p.name for p in ROOT.glob("src/tailcast/*.py")
        if any(m == "scipy.integrate" or m.startswith("scipy.integrate.") for m in _imports(p))
    )
    assert users == []
