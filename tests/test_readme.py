"""The README quickstart runs and agrees with the pipeline behind the CLI."""

import contextlib
import io
import json
import re
from pathlib import Path

from reopt.experiments import parse_config, run_single

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_matches_run_single():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {"__name__": "readme_quickstart"})
    value, threshold = (float(line) for line in out.getvalue().split())
    cfg, _ = parse_config(json.dumps({"project": {"rho": 0.5}, "option": {"gamma": 1.0}}))
    res = run_single(cfg)
    assert value == res.option_value_v0
    assert threshold == res.threshold_spot_t0
