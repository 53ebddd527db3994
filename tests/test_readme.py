"""The README's library sample runs as printed and gives the value it states."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sample_runs_and_gives_the_stated_beta():
    block, = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert "gf_for_q(25)" in block
    assert re.search(r"^beta_fast\(census\) +# 36$", block, re.M)
    namespace = {}
    exec(block, namespace)
    assert namespace["beta_fast"](namespace["census"]) == 36
