"""README's library quick start runs as written."""

import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    rng = np.random.default_rng(7)
    n = 200
    x = rng.normal(size=(n, 2))
    z = np.repeat([1, 0], n // 2)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ [0.5, -0.3] + 0.4 * z)))).astype(int)
    rows = ["y,z,x1,x2"] + [f"{a},{b},{c:.17g},{d:.17g}" for a, b, (c, d) in zip(y, z, x)]
    (tmp_path / "ipd.csv").write_text("\n".join(rows) + "\n")
    # arm means inside the IPD support, so the weights exist
    mean = x.mean(axis=0)
    (tmp_path / "agd.json").write_text(json.dumps({
        "covariates": ["x1", "x2"],
        "arms": {
            "active": {"n": 150, "y_mean": 0.55, "y_var": 0.25,
                       "x_mean": (mean + [0.2, -0.1]).tolist()},
            "comparator": {"n": 150, "y_mean": 0.45, "y_var": 0.25,
                           "x_mean": (mean + [0.1, 0.1]).tolist()},
        },
    }))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    report = json.loads(capsys.readouterr().out)
    assert report["errors"] == {}
    assert set(report["methods"]) == {"maic-nab", "maic-acb", "bucher", "stc"}
