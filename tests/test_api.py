"""The package's public names and the README's Python API example."""

import contextlib
import importlib
import io
import os
import re

import pytest

import omaslab

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

EXPORTED = {
    "apply_error_jump",
    "build_mode_matrices",
    "build_transition_map",
    "kronecker_sum_spectrum_check",
    "lyapunov_trace",
    "run_scenario",
    "spectral_abscissa",
    "validate_switching",
}


def test_all_names_exactly_the_exported_api():
    assert sorted(omaslab.__all__) == sorted(EXPORTED)
    for name in omaslab.__all__:
        assert callable(getattr(omaslab, name)), name


def _readme_api_section():
    with open(README) as fh:
        return fh.read().split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_readme_import_table_names_resolve():
    rows = re.findall(r"^\|[^|]*\| `(omaslab[.\w]*)`: (.*?)\s*\|$", _readme_api_section(), re.M)
    assert len(rows) == 10
    for module, names in rows:
        mod = importlib.import_module(module)
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(mod, name), f"README lists {module}.{name}, which does not exist"


def test_readme_python_api_example_runs():
    section = _readme_api_section()
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    (ratio, bound), (ok, tail, trace_ok) = (line.split() for line in out.getvalue().splitlines())
    assert float(ratio) == pytest.approx(13.16, rel=1e-6)
    assert float(bound) == pytest.approx(7670.16, rel=1e-6)
    assert (ok, trace_ok) == ("True", "True")
    assert float(tail) == pytest.approx(0.133, abs=5e-4)
