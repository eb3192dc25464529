"""Deterministic IPD CSV / AGD JSON pair for the compare-cli workload.

The pair comes from the simulation's own data-generating process
(`replicate_datasets`): trial 1 becomes the IPD file and trial 2 is
collapsed to the arm summaries of the AGD file.  The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from maic.estimators import Scale
from maic.simulation import Confounding, ScenarioConfig, replicate_datasets

# 2 x 2500 IPD rows and p=8 covariates: first+second moments give k=16
P = 8
N_PER_ARM = 2500


def write_compare_fixture(seed: int, out_dir: Path) -> tuple[Path, Path]:
    cfg = ScenarioConfig(p=P, n_per_arm=N_PER_ARM, confounding=Confounding.MODERATE,
                         scale=Scale.LOGIT, replicates=1, seed=seed)
    ipd, agd, _records = replicate_datasets(cfg, 0)
    out_dir.mkdir(parents=True, exist_ok=True)
    ipd_path = out_dir / "ipd.csv"
    agd_path = out_dir / "agd.json"
    with open(ipd_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "z", *ipd.covariate_names])
        for yi, zi, xi in zip(ipd.y, ipd.z, ipd.x):
            # repr gives the shortest string that parses back to the same double
            writer.writerow([repr(float(yi)), int(zi), *(repr(float(v)) for v in xi)])
    with open(agd_path, "w", encoding="utf-8") as fh:
        json.dump(agd.to_dict(), fh, indent=2)
        fh.write("\n")
    return ipd_path, agd_path
