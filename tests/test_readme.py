"""The README's library sketch runs as written, so API drift in the docs fails the suite."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_sketch() -> str:
    with open(README) as fh:
        text = fh.read()
    match = re.search(r"^## Library sketch\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs():
    scope = {}
    exec(compile(library_sketch(), README, "exec"), scope)
    assert scope["report"].converged
    assert scope["u_eps"].values.shape == scope["u_ref"].shape
