"""Write the pinned checkpoints in this directory.

One tiny FORMAT_VERSION 3 checkpoint per sparse-GP kind (svgp, ppgpr, dgp,
dspp), trained for a few epochs on a small synthetic fleet, and
``expected.npz``: the query rows ``X`` and, per kind, the predictive
``weights``, ``means`` and ``variances`` that checkpoint gave when written.
``test_experiment.TestPinnedCheckpoints`` loads each checkpoint and must
reproduce those predictions, so the files pin the slice names, the order of
the raw parameter vector and the model_config keys of every GP kind.

The files were written before the flat GP and the deep GPs were merged into
one class hierarchy. Rerunning this script overwrites that evidence; do it
only when the checkpoint format changes on purpose. Run from the repo root:

    PYTHONPATH=src python tests/fixtures/checkpoints/generate.py
"""

import tempfile
from pathlib import Path

import numpy as np

from rulkit.data import SplitSpec, synth_fleet
from rulkit.experiment import ExperimentConfig, load_checkpoint, run_experiment

HERE = Path(__file__).resolve().parent
KINDS = {
    "svgp": dict(objective="elbo", num_inducing=6),
    "ppgpr": dict(objective="ppgpr", num_inducing=6),
    "dgp": dict(objective="elbo", num_inducing=5, width=2, depth=2, train_samples=3,
                test_samples=4),
    "dspp": dict(objective="ppgpr", num_inducing=5, width=2, depth=1, num_sites=3),
}


def main():
    fleet = synth_fleet(3, 30, seed=5)
    split = SplitSpec(("u001", "u002"), ("u003",))
    expected = {}
    for kind, fields in KINDS.items():
        config = ExperimentConfig(kind=kind, epochs=3, batch_size=16, learning_rate=0.01,
                                  seed=11, **fields)
        with tempfile.TemporaryDirectory() as out:
            run_experiment(config, fleet, split, out)
            (HERE / f"{kind}.npz").write_bytes((Path(out) / "checkpoint.npz").read_bytes())
        model, _, stats = load_checkpoint(HERE / f"{kind}.npz")
        X = stats.apply(fleet.unit("u003").features[::6])
        preds = model.predictive(X)
        expected["X"] = X
        for name in ("weights", "means", "variances"):
            expected[f"{kind}.{name}"] = getattr(preds, name)
    np.savez(HERE / "expected.npz", **expected)


if __name__ == "__main__":
    main()
