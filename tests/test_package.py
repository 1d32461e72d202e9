"""The package's import paths: the README's library examples, and the
names the benchmark under perfbench/ wraps."""

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_examples_run():
    # The package root exports nothing, so these imports from the defining
    # modules are the only paths; the blocks share one namespace, in order.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert [line.split()[:2] for line in lines[-2:]] == [["logcanon", "pass"], ["compat", "pass"]]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # install() reads every traced name, so a deleted or renamed one raises
    # here; the three that the benchmark child also captures must come out
    # wrapped.  A subprocess keeps the rebinding out of this test run.
    script = textwrap.dedent(
        """
        import bdcluster, tracer
        from bdcluster import poisson, quiver, verify

        tracer.install(tracer.Tracer(), bdcluster)
        for fn in (verify.run_checks, poisson.omega_sweep, quiver.mutate_seed):
            assert fn.__wrapped__.__module__.startswith("bdcluster."), fn
        """
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
