"""The one rule for a list of unit ids, as a property: every place such a list
enters (a ``SplitSpec`` side, a config's split field, ``prepare_split``,
``checkpoint_records`` and the three CLI flags) refuses a malformed one with a
ValueError, or exit 1, whose message starts with the flag, field or argument
that gave the list."""

import contextlib
import functools
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit.cli import main
from rulkit.data import SplitSpec, save_fleet, synth_fleet
from rulkit.experiment import ExperimentConfig, checkpoint_records, prepare_split, run_experiment

@functools.cache
def fleet_of(units: int, steps: int):
    return synth_fleet(units, steps, seed=5)


@st.composite
def malformed(draw, case: str):
    """(fleet, train, test, bad): a split of a 3-5 unit fleet whose ``bad``
    side ("train" or "test") is malformed as ``case`` says. For "overlap"
    both sides are well formed and share a unit, and ``bad`` is "train", the
    side a refusal names first."""
    fleet = fleet_of(draw(st.integers(3, 5)), draw(st.integers(20, 40)))
    ids = draw(st.permutations(fleet.unit_ids))
    cut = draw(st.integers(1, len(ids) - 1))
    sides = {"train": ids[:cut], "test": ids[cut:]}
    bad = "train" if case == "overlap" else draw(st.sampled_from(["train", "test"]))
    good = sides[bad]
    if case == "bare string":
        sides[bad] = good[0]
    elif case == "empty":
        sides[bad] = draw(st.sampled_from([[], ()]))
    else:
        extra = {
            "repeated": st.sampled_from(good),
            "not a string": st.sampled_from([7, None, 1.5, b"u001", ("u001",)]),
            "unknown": st.from_regex(r"x[0-9]{1,3}", fullmatch=True),
            "overlap": st.sampled_from(sides["test"]),
        }[case]
        sides[bad] = draw(st.permutations(good + [draw(extra)]))
    return fleet, sides["train"], sides["test"], bad


# What is malformed without a fleet to check against.
SHAPES = ["bare string", "empty", "repeated", "not a string", "overlap"]
# What a comma-separated flag can spell.
SPELLED = ["empty", "repeated", "unknown", "overlap"]


def refused(call, name: str):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value).startswith(f"{name} "), str(caught.value)


@pytest.mark.parametrize("case", SHAPES)
@settings(max_examples=20)
@given(data=st.data())
def test_split_spec_refuses_by_side(case, data):
    _, train, test, bad = data.draw(malformed(case))
    refused(lambda: SplitSpec(train, test), f"{bad}_ids")


@pytest.mark.parametrize("case", SHAPES)
@settings(max_examples=20)
@given(data=st.data())
def test_config_validate_refuses_by_field(case, data):
    _, train, test, bad = data.draw(malformed(case))
    config = ExperimentConfig(train_units=train, test_units=test)
    refused(config.validate, f"{bad}_units")


@settings(max_examples=20)
@given(data=st.data())
def test_prepare_split_refuses_a_unit_the_fleet_lacks_by_side(data):
    fleet, train, test, bad = data.draw(malformed("unknown"))
    refused(lambda: prepare_split(fleet, SplitSpec(train, test)), f"{bad}_ids")


class _NoPredictions:
    def predictive(self, X, rng=None):
        raise AssertionError("predictive ran")


@pytest.mark.parametrize("case", ["bare string", "empty", "repeated", "not a string", "unknown"])
@settings(max_examples=20)
@given(data=st.data())
def test_checkpoint_records_refuses_by_argument(case, data):
    fleet, train, test, bad = data.draw(malformed(case))
    ids = {"train": train, "test": test}[bad]
    refused(lambda: checkpoint_records(_NoPredictions(), ExperimentConfig(), None, fleet, ids),
            "unit_ids")


@pytest.fixture(scope="module")
def on_disk(tmp_path_factory):
    """The directory each fleet is saved in, a checkpoint that reads their
    features, and an output directory that no refused command may create."""
    root = tmp_path_factory.mktemp("unit_lists")
    dirs = {}

    def fleet_dir(fleet):
        if id(fleet) not in dirs:
            dirs[id(fleet)] = root / f"fleet{len(dirs)}"
            save_fleet(fleet, dirs[id(fleet)])
        return dirs[id(fleet)]

    config = ExperimentConfig(kind="mcd", hidden_layers=1, hidden_units=4, test_samples=2,
                              epochs=1)
    run_experiment(config, fleet_of(3, 20), SplitSpec(["u001", "u002"], ["u003"]),
                   out_dir=root / "trained")
    return fleet_dir, root / "trained" / "checkpoint.npz", root / "out"


def _spelled(ids) -> str:
    return ",".join(ids) if ids else ","


def cli_refused(argv, flag: str, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*argv, "--out", str(out)]) == 1
    assert err.getvalue().startswith(f"error: {flag} "), err.getvalue()
    assert not out.exists()


@pytest.mark.parametrize("case", SPELLED)
@settings(max_examples=20)
@given(data=st.data())
def test_split_flags_refuse_by_flag(case, data, on_disk):
    fleet_dir, _, out = on_disk
    fleet, train, test, bad = data.draw(malformed(case))
    cli_refused([
        "train", "--data", str(fleet_dir(fleet)), "--kind", "mcd", "--epochs", "1",
        "--train-units", _spelled(train), "--test-units", _spelled(test),
    ], f"--{bad}-units", out)


@pytest.mark.parametrize("case", ["empty", "repeated", "unknown"])
@settings(max_examples=20)
@given(data=st.data())
def test_units_flag_refuses_by_flag(case, data, on_disk):
    fleet_dir, checkpoint, out = on_disk
    fleet, train, test, bad = data.draw(malformed(case))
    cli_refused([
        data.draw(st.sampled_from(["predict", "evaluate"])), "--checkpoint", str(checkpoint),
        "--data", str(fleet_dir(fleet)), "--units", _spelled({"train": train, "test": test}[bad]),
    ], "--units", out)
