"""Write the pinned checkpoints in this directory.

Two sets of tiny FORMAT_VERSION 3 checkpoints, each trained for a few epochs
on a small synthetic fleet:

- ``gp``: one per sparse-GP kind (svgp, ppgpr, dgp, dspp), with
  ``expected.npz``;
- ``nn``: the dropout nets, mcd at keep_prob 0.8 (``mcd``) and at 1.0
  (``mcd_p1``, homoscedastic) and the point baseline ``ffnn``, with
  ``expected_nn.npz``.

Each expected file holds the query rows ``X`` and, per checkpoint, the
predictive ``weights``, ``means`` and ``variances`` that checkpoint gave
when written (the nets drawing their masks from the default stream).
``test_experiment.TestPinnedCheckpoints`` loads each checkpoint and must
reproduce those predictions, so the files pin the slice names, the order of
the raw parameter vector and the model_config keys of every kind, and the
nets' predictive passes.

The gp set was written before the flat GP and the deep GPs were merged into
one class hierarchy, and the nn set before mcd's maskless pass (the point
baseline and keep_prob 1) joined its masked pass loop. Rerunning this script
overwrites that evidence; do it only when the checkpoint format changes on
purpose. Run from the repo root, naming the set:

    PYTHONPATH=src python tests/fixtures/checkpoints/generate.py gp|nn
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from rulkit.data import SplitSpec, synth_fleet
from rulkit.experiment import ExperimentConfig, load_checkpoint, run_experiment

HERE = Path(__file__).resolve().parent
_NET = dict(hidden_layers=2, hidden_units=5, test_samples=6)
# per set: its expected file and each checkpoint's name and config fields
SETS = {
    "gp": ("expected.npz", {
        "svgp": dict(kind="svgp", objective="elbo", num_inducing=6),
        "ppgpr": dict(kind="ppgpr", objective="ppgpr", num_inducing=6),
        "dgp": dict(kind="dgp", objective="elbo", num_inducing=5, width=2, depth=2,
                    train_samples=3, test_samples=4),
        "dspp": dict(kind="dspp", objective="ppgpr", num_inducing=5, width=2, depth=1,
                     num_sites=3),
    }),
    "nn": ("expected_nn.npz", {
        "mcd": dict(kind="mcd", keep_prob=0.8, **_NET),
        "mcd_p1": dict(kind="mcd", keep_prob=1.0, heteroscedastic=False, **_NET),
        "ffnn": dict(kind="ffnn", keep_prob=0.8, heteroscedastic=False, **_NET),
    }),
}


def main(name: str):
    expected_file, checkpoints = SETS[name]
    fleet = synth_fleet(3, 30, seed=5)
    split = SplitSpec(("u001", "u002"), ("u003",))
    expected = {}
    for label, fields in checkpoints.items():
        config = ExperimentConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=11, **fields)
        with tempfile.TemporaryDirectory() as out:
            run_experiment(config, fleet, split, out)
            (HERE / f"{label}.npz").write_bytes((Path(out) / "checkpoint.npz").read_bytes())
        model, _, stats = load_checkpoint(HERE / f"{label}.npz")
        X = stats.apply(fleet.unit("u003").features[::6])
        preds = model.predictive(X)
        expected["X"] = X
        for column in ("weights", "means", "variances"):
            expected[f"{label}.{column}"] = getattr(preds, column)
    np.savez(HERE / expected_file, **expected)


if __name__ == "__main__":
    main(sys.argv[1])
