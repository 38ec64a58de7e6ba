import re
from pathlib import Path

import wignerlss

PUBLIC = {
    # README quick start
    "EnsembleSpec", "RunConfig", "clt_prediction", "compare", "cumulant_summary",
    "gaussian", "profile_flat", "run_ensemble", "two_point", "from_name",
    # config builders wlbench/probe.py imports
    "entry_from_config", "profile_from_descriptor", "sample",
    "ConfigError", "NumericalError", "__version__",
}


def test_public_namespace():
    assert len(wignerlss.__all__) == len(PUBLIC)
    assert set(wignerlss.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(wignerlss, name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert quick_start is not None
    # the whole block, so a stale keyword in it fails here: 4000 replicas of flat N = 300 x2
    names = {}
    exec(quick_start.group(1), names)
    assert names["pred"].paths_agree is True and names["report"]["overall_pass"] is True
