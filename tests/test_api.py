"""The package's public names and the README's Python API example."""

import contextlib
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


def test_readme_python_api_example_runs():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    (ratio, bound), (ok, tail, trace_ok) = (line.split() for line in out.getvalue().splitlines())
    assert float(ratio) == pytest.approx(13.16, rel=1e-6)
    assert float(bound) == pytest.approx(7696.26, rel=1e-6)
    assert (ok, trace_ok) == ("True", "True")
    assert float(tail) == pytest.approx(0.206, abs=5e-4)
