"""Fleet ingestion, validation, normalization, and the synthetic generator.

The shifted-regime check uses a two-sample energy statistic with a
permutation null rather than a fixed threshold, so it stays valid if the
generator's internal draws are ever reordered.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit.data import (
    DataFormatError,
    FleetDataset,
    NormalizationStats,
    SplitSpec,
    UnitSeries,
    load_fleet,
    normalize,
    save_fleet,
    stack_rows,
    synth_fleet,
)

FIXTURES = Path(__file__).parent / "fixtures"


def unit(uid="u1", n=4, dim=2, rul=None, time=None):
    rng = np.random.default_rng(hash(uid) % 2**32)
    return UnitSeries(
        uid,
        np.arange(n, dtype=float) if time is None else time,
        rng.standard_normal((n, dim)),
        np.arange(n - 1, -1, -1, dtype=float) if rul is None else rul,
    )


class TestUnitSeries:
    def test_accepts_well_formed(self):
        u = unit(n=5, dim=3)
        assert u.num_rows == 5
        assert u.feature_dim == 3

    def test_too_short(self):
        with pytest.raises(DataFormatError, match="at least 2 rows"):
            unit(n=1)

    def test_time_must_increase(self):
        with pytest.raises(DataFormatError, match="time not increasing at row 2"):
            unit(n=3, time=np.array([0.0, 1.0, 1.0]))

    def test_rul_must_not_increase(self):
        with pytest.raises(DataFormatError, match="rul increases at row 2"):
            unit(n=3, rul=np.array([3.0, 2.0, 4.0]))

    def test_rul_plateau_allowed(self):
        u = unit(n=4, rul=np.array([5.0, 5.0, 4.0, 3.0]))
        assert u.rul[0] == u.rul[1]

    def test_final_rul_nonnegative(self):
        with pytest.raises(DataFormatError, match="final rul is negative"):
            unit(n=3, rul=np.array([1.0, 0.0, -1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(DataFormatError, match="non-finite value in rul"):
            unit(n=3, rul=np.array([2.0, np.nan, 0.0]))

    @pytest.mark.parametrize("time", [[0.0, 0.5, 1.0], [0.0, 1.0, 2.000001]])
    def test_fractional_time_rejected(self, time):
        with pytest.raises(DataFormatError, match="is not a whole number"):
            unit(n=3, time=np.array(time))

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError, match="lengths disagree"):
            UnitSeries("u1", np.arange(3.0), np.zeros((4, 2)), np.zeros(3))

    def test_bad_unit_id(self):
        with pytest.raises(DataFormatError, match="unit_id"):
            unit(uid="has space")


class TestFleetDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate unit ids: u1"):
            FleetDataset((unit("u1"), unit("u1")))

    def test_feature_dim_must_agree(self):
        with pytest.raises(DataFormatError, match="inconsistent feature dimension"):
            FleetDataset((unit("u1", dim=2), unit("u2", dim=3)))

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError, match="at least one unit"):
            FleetDataset(())

    def test_unit_lookup(self):
        fleet = FleetDataset((unit("u1"), unit("u2")))
        assert fleet.unit("u2").unit_id == "u2"
        with pytest.raises(KeyError, match="u9"):
            fleet.unit("u9")

    def test_num_rows(self):
        fleet = FleetDataset((unit("u1", n=4), unit("u2", n=6)))
        assert fleet.num_rows == 10


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="^train_ids and test_ids both name u2$"):
            SplitSpec(("u1", "u2"), ("u2",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="train_ids names u1 more than once"):
            SplitSpec(("u1", "u1"), ("u2",))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="train_ids"):
            SplitSpec((), ("u1",))

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError, match=r"^test_ids must name at least one unit, got \(\)$"):
            SplitSpec(("u1",), ())

    @pytest.mark.parametrize("frac", [-0.1, 1.0])
    def test_val_fraction_range(self, frac):
        with pytest.raises(ValueError, match="val_fraction"):
            SplitSpec(("u1",), ("u2",), val_fraction=frac)

    def test_duplicates_are_named_by_side_and_id(self):
        with pytest.raises(ValueError, match="test_ids names u2 more than once$"):
            SplitSpec(("u1",), ("u2", "u3", "u2"))

    def test_a_bare_string_is_refused_not_split_into_characters(self):
        with pytest.raises(ValueError, match="^train_ids must be a list of unit ids, got 'u001'$"):
            SplitSpec("u001", ("u002",))

    def test_ids_that_are_not_strings_are_refused(self):
        with pytest.raises(ValueError, match=r"^train_ids must be a list of unit ids, got \(1, 2\)$"):
            SplitSpec((1, 2), (3,))

    def test_lists_are_taken_and_kept_as_tuples(self):
        split = SplitSpec(["u1", "u2"], ["u3"])
        assert split.train_ids == ("u1", "u2") and split.test_ids == ("u3",)

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_check_against_names_the_side_of_an_unknown_unit(self, side):
        fleet = FleetDataset((unit("u1"), unit("u2")))
        ids = {"train": ("u1",), "test": ("u2",)}
        ids[side] += ("u3",)
        with pytest.raises(ValueError, match=rf"^{side}_ids names units not in the fleet: u3$"):
            SplitSpec(ids["train"], ids["test"]).check_against(fleet)

    def test_check_against_unknown_unit(self):
        fleet = FleetDataset((unit("u1"), unit("u2")))
        SplitSpec(("u1",), ("u2",)).check_against(fleet)
        with pytest.raises(ValueError, match="test_ids names units not in the fleet"):
            SplitSpec(("u1",), ("u3",)).check_against(fleet)


class TestLoadFleet:
    def test_fixture_values(self):
        fleet = load_fleet(FIXTURES / "toy_fleet")
        assert fleet.unit_ids == ["a", "b"]
        assert fleet.feature_dim == 2
        a = fleet.unit("a")
        np.testing.assert_array_equal(a.time, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(a.features[:, 0], [1.5, 1.25, 1.0, 0.75])
        np.testing.assert_array_equal(a.rul, [3.0, 2.0, 1.0, 0.0])
        b = fleet.unit("b")
        assert b.num_rows == 3
        assert b.rul[-1] == 3.5

    def test_round_trip_is_exact(self, tmp_path):
        fleet = synth_fleet(3, 20, seed=7, feature_dim=5)
        save_fleet(fleet, tmp_path / "out")
        back = load_fleet(tmp_path / "out")
        assert back.unit_ids == sorted(fleet.unit_ids)
        for u in fleet.units:
            v = back.unit(u.unit_id)
            np.testing.assert_array_equal(v.time, u.time)
            np.testing.assert_array_equal(v.features, u.features)
            np.testing.assert_array_equal(v.rul, u.rul)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bit_for_bit(self, data):
        # any finite floats, -0.0 among them, and ids of every allowed
        # character, leading dots included, come back with the same bits
        finite = st.floats(allow_nan=False, allow_infinity=False)
        dim = data.draw(st.integers(1, 4))
        ids = data.draw(st.lists(st.from_regex(r"[A-Za-z0-9._-]{1,8}", fullmatch=True)
                                 | st.just(".") | st.just(".a-_9"),
                                 min_size=1, max_size=3, unique=True))
        units = []
        for uid in ids:
            n = data.draw(st.integers(2, 12))
            time = data.draw(st.lists(finite.map(np.floor), min_size=n, max_size=n, unique=True))
            features = data.draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                                          min_size=n, max_size=n))
            rul = data.draw(st.lists(st.floats(min_value=-0.0, allow_infinity=False),
                                     min_size=n, max_size=n))
            units.append(UnitSeries(uid, np.sort(time), np.array(features),
                                    np.sort(rul)[::-1]))
        with tempfile.TemporaryDirectory() as tmp:
            save_fleet(FleetDataset(tuple(units)), tmp)
            back = load_fleet(tmp)
        assert sorted(back.unit_ids) == sorted(ids)
        for u in units:
            v = back.unit(u.unit_id)
            for name in ("time", "features", "rul"):
                a, b = getattr(u, name), getattr(v, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_a_unit_id_in_two_files_is_refused_naming_both(self, tmp_path):
        self._write(tmp_path, "a.csv", "unit_id,t,f_1,rul\nu001,0,1.0,1\nu001,1,2.0,0\n")
        self._write(tmp_path, "b.csv", "unit_id,t,f_1,rul\nu001,0,3.0,1\nu001,1,4.0,0\n")
        with pytest.raises(DataFormatError,
                           match=r"^a\.csv and b\.csv hold the same unit id 'u001'$"):
            load_fleet(tmp_path)

    def _write(self, tmp_path, name, text):
        (tmp_path / name).write_text(text)
        return tmp_path

    def test_a_file_that_is_not_utf8_is_refused_by_name(self, tmp_path):
        (tmp_path / "u.csv").write_bytes(b"unit_id,t,f_1,rul\nu,0,\xff,2\n")
        with pytest.raises(DataFormatError, match=r"^u\.csv: not a UTF-8 text file: "):
            load_fleet(tmp_path)

    def test_bad_header(self, tmp_path):
        self._write(tmp_path, "u.csv", "id,t,f_1,rul\nu,0,1,2\nu,1,1,1\n")
        with pytest.raises(DataFormatError, match="line 1: header"):
            load_fleet(tmp_path)

    def test_rul_must_be_last(self, tmp_path):
        self._write(tmp_path, "u.csv", "unit_id,t,rul,f_1\nu,0,2,1\nu,1,1,1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_fleet(tmp_path)

    def test_parse_error_cites_line_and_column(self, tmp_path):
        self._write(
            tmp_path, "u.csv",
            "unit_id,t,f_1,rul\nu,0,1.0,2\nu,1,oops,1\n",
        )
        with pytest.raises(DataFormatError, match=r"u\.csv line 3: cannot parse column 'f_1' from 'oops'"):
            load_fleet(tmp_path)

    def test_column_count_mismatch(self, tmp_path):
        self._write(tmp_path, "u.csv", "unit_id,t,f_1,rul\nu,0,1.0,2\nu,1,1\n")
        with pytest.raises(DataFormatError, match="line 3: expected 4 columns, got 3"):
            load_fleet(tmp_path)

    def test_unit_id_constant_within_file(self, tmp_path):
        self._write(
            tmp_path, "u.csv",
            "unit_id,t,f_1,rul\nu,0,1.0,2\nw,1,1.0,1\n",
        )
        with pytest.raises(DataFormatError, match="line 3: unit_id changes"):
            load_fleet(tmp_path)

    def test_rul_increase_cites_file_line(self, tmp_path):
        self._write(
            tmp_path, "u.csv",
            "unit_id,t,f_1,rul\nu,0,1.0,3\nu,1,1.0,2\nu,2,1.0,4\n",
        )
        with pytest.raises(DataFormatError, match="line 4: rul increases"):
            load_fleet(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ("unit_id,t,f_1,rul\nu,0,1.0,2\nu,1,nan,1\n",
         "u.csv line 3, column 'f_1': non-finite value in features"),
        ("unit_id,t,f_1,rul\nu,0,1.0,2\nu,1,1.0,inf\n",
         "u.csv line 3, column 'rul': non-finite value in rul"),
        ("unit_id,t,f_1,rul\nu,0.5,1.0,2\nu,1.5,1.0,1\n",
         "u.csv line 2, column 't': time 0.5 at row 0 is not a whole number"),
        ("unit_id,t,f_1,rul\nu,1,1.0,2\nu,1,1.0,1\n",
         "u.csv line 3: time not increasing at row 1"),
        ("unit_id,t,f_1,rul\nu,0,1.0,0\nu,1,1.0,-1\n",
         "u.csv line 3, column 'rul': final rul is negative (-1.0)"),
        ("unit_id,t,f_1,rul\nu,0,1.0,1\n",
         "u.csv line 2: needs at least 2 rows, got 1"),
        ("unit_id,t,f_1,rul\nu 1,0,1.0,1\nu 1,1,1.0,0\n",
         "u.csv line 2, column 'unit_id': unit_id must match"),
        # blank lines count: the rise is on the file's fifth line
        ("\nunit_id,t,f_1,rul\nu,0,1.0,3\n\nu,1,1.0,4\n",
         "u.csv line 5: rul increases at row 1"),
    ])
    def test_a_unit_rule_names_the_file_line_and_cell(self, tmp_path, text, message):
        self._write(tmp_path, "u.csv", text)
        with pytest.raises(DataFormatError) as info:
            load_fleet(tmp_path)
        assert str(info.value).startswith(message)

    def test_header_is_shown_with_repr(self, tmp_path):
        self._write(tmp_path, "u.csv", "\ufeffunit_id,t,f_1,rul\nu,0,1.0,1\nu,1,1.0,0\n")
        with pytest.raises(DataFormatError) as info:
            load_fleet(tmp_path)
        assert str(info.value) == ("u.csv line 1: header must be unit_id,t,<features...>,rul, "
                                   "got '\\ufeffunit_id,t,f_1,rul'")

    def test_second_file_header_must_match(self, tmp_path):
        self._write(tmp_path, "a.csv", "unit_id,t,f_1,rul\na,0,1.0,1\na,1,1.0,0\n")
        self._write(tmp_path, "b.csv", "unit_id,t,f_1,f_2,rul\nb,0,1,2,1\nb,1,1,2,0\n")
        with pytest.raises(DataFormatError, match="does not match"):
            load_fleet(tmp_path)

    def test_header_only_file(self, tmp_path):
        self._write(tmp_path, "u.csv", "unit_id,t,f_1,rul\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_fleet(tmp_path)

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_first_file_is_named(self, tmp_path, text):
        self._write(tmp_path, "a.csv", text)
        self._write(tmp_path, "b.csv", "unit_id,t,f_1,rul\nb,0,1.0,1\nb,1,1.0,0\n")
        with pytest.raises(DataFormatError, match=r"a\.csv: empty file"):
            load_fleet(tmp_path)

    def test_blank_lines_before_the_first_header(self, tmp_path):
        # the first file's header is its first non-blank line, as for every file
        self._write(tmp_path, "a.csv", "\nunit_id,t,f_1,rul\na,0,1.0,1\na,1,1.0,0\n")
        self._write(tmp_path, "b.csv", "unit_id,t,f_1,rul\nb,0,1.0,1\nb,1,1.0,0\n")
        assert load_fleet(tmp_path).unit_ids == ["a", "b"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataFormatError, match="not a directory"):
            load_fleet(tmp_path / "nowhere")

    def test_directory_without_csvs(self, tmp_path):
        with pytest.raises(DataFormatError, match="no \\*.csv"):
            load_fleet(tmp_path)


class TestNormalize:
    def test_pooled_moments_after_normalization(self):
        fleet = synth_fleet(5, 30, seed=3)
        stats = normalize(fleet, fleet.unit_ids)
        X = stats.apply(stack_rows(fleet)[0])
        assert np.all(np.abs(X.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(X.std(axis=0) - 1.0) < 1e-6)
        assert isinstance(stats, NormalizationStats)

    def test_constant_feature_maps_to_zero(self):
        rows = np.column_stack([np.full(4, 2.5), np.arange(4.0)])
        fleet = FleetDataset(
            (UnitSeries("u1", np.arange(4.0), rows, np.array([3.0, 2.0, 1.0, 0.0])),)
        )
        stats = normalize(fleet, ["u1"])
        np.testing.assert_array_equal(stats.apply(fleet.units[0].features)[:, 0], np.zeros(4))
        assert stats.std[0] == 1e-8

    def test_stats_come_from_named_units_only(self):
        fleet = load_fleet(FIXTURES / "toy_fleet")
        stats = normalize(fleet, ["a"])
        a = fleet.unit("a").features
        np.testing.assert_allclose(stats.mean, a.mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(stats.std, a.std(axis=0), rtol=1e-15)
        # the held-out unit is transformed with the training stats
        expect = (fleet.unit("b").features - stats.mean) / stats.std
        np.testing.assert_allclose(stats.apply(fleet.unit("b").features), expect, rtol=1e-15)

    def test_empty_stats_from_rejected(self):
        fleet = synth_fleet(2, 10, seed=0)
        with pytest.raises(ValueError, match="stats_from"):
            normalize(fleet, [])

    def test_stats_validation(self):
        with pytest.raises(ValueError, match="positive"):
            NormalizationStats(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            NormalizationStats(np.array([np.inf]), np.ones(1))
        with pytest.raises(ValueError, match="does not match"):
            NormalizationStats(np.zeros(2), np.ones(2)).apply(np.zeros((3, 5)))


class TestStackRows:
    def test_order_and_shapes(self):
        fleet = load_fleet(FIXTURES / "toy_fleet")
        X, y, uid, t = stack_rows(fleet)
        assert X.shape == (7, 2)
        np.testing.assert_array_equal(y, [3, 2, 1, 0, 5.5, 4.5, 3.5])
        assert list(uid) == ["a"] * 4 + ["b"] * 3
        np.testing.assert_array_equal(t, [0, 1, 2, 3, 5, 6, 7])

    def test_selection_follows_argument_order(self):
        fleet = load_fleet(FIXTURES / "toy_fleet")
        _, y, uid, _ = stack_rows(fleet, ["b", "a"])
        assert list(uid) == ["b"] * 3 + ["a"] * 4
        assert y[0] == 5.5

    @pytest.mark.parametrize("ids, msg", [
        ("a", "^unit_ids must be a list of unit ids, got 'a'$"),
        (["a", "c"], "^unit_ids names units not in the fleet: c$"),
    ])
    def test_a_malformed_selection_is_refused_by_argument(self, ids, msg):
        with pytest.raises(ValueError, match=msg):
            stack_rows(load_fleet(FIXTURES / "toy_fleet"), ids)


def pairwise_mean_dist(A, B):
    d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(-1))
    if A is B:
        iu = np.triu_indices(len(A), k=1)
        return float(d[iu].mean())
    return float(d.mean())


def energy_distance(A, B):
    return 2.0 * pairwise_mean_dist(A, B) - pairwise_mean_dist(A, A) - pairwise_mean_dist(B, B)


class TestSynthFleet:
    def test_same_seed_is_identical(self):
        a = synth_fleet(4, 25, seed=12, shifted_units=1)
        b = synth_fleet(4, 25, seed=12, shifted_units=1)
        assert a.unit_ids == b.unit_ids
        for u, v in zip(a.units, b.units):
            np.testing.assert_array_equal(u.features, v.features)
            np.testing.assert_array_equal(u.rul, v.rul)

    def test_seed_changes_fleet(self):
        a = synth_fleet(2, 25, seed=1)
        b = synth_fleet(2, 25, seed=2)
        assert not np.array_equal(a.units[0].features, b.units[0].features)

    def test_unit_naming_and_counts(self):
        fleet = synth_fleet(3, 12, shifted_units=2)
        assert fleet.unit_ids == ["u001", "u002", "u003", "s001", "s002"]

    def test_rul_counts_down_to_zero(self):
        fleet = synth_fleet(3, 20, seed=5)
        for u in fleet.units:
            np.testing.assert_array_equal(
                u.rul, np.arange(u.num_rows - 1, -1, -1, dtype=float)
            )

    def test_noiseless_lifetime_is_steps_without_drift_spread(self):
        # repeated subtraction of 1/steps can land a hair above zero at the
        # nominal crossing, so allow one extra recorded row
        fleet = synth_fleet(4, 30, noise=0.0, drift_spread=0.0, seed=2)
        assert all(30 <= u.num_rows <= 31 for u in fleet.units)

    def test_feature_dim_honored(self):
        fleet = synth_fleet(2, 10, feature_dim=6)
        assert fleet.feature_dim == 6

    def test_shifted_units_are_separable_by_energy_distance(self):
        fleet = synth_fleet(8, 20, seed=9, shifted_units=4)
        # summarize each unit by its mean operating-condition vector
        cond = {u.unit_id: u.features[:, :3].mean(axis=0) for u in fleet.units}
        A = np.array([cond[f"u{i + 1:03d}"] for i in range(8)])
        B = np.array([cond[f"s{i + 1:03d}"] for i in range(4)])
        observed = energy_distance(A, B)
        pool = np.concatenate([A, B], axis=0)
        rng = np.random.default_rng(0)
        null = []
        for _ in range(200):
            perm = rng.permutation(len(pool))
            null.append(energy_distance(pool[perm[:8]], pool[perm[8:]]))
        assert observed > np.quantile(null, 0.95)

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(units=1, steps=10), "at least 2 units"),
            (dict(units=2, steps=1), "steps per unit"),
            (dict(units=2, steps=10, noise=-0.1), "noise"),
            (dict(units=2, steps=10, mode_mix=1.5), "mode_mix"),
            (dict(units=2, steps=10, feature_dim=3), "feature_dim"),
            (dict(units=2, steps=10, shifted_units=-1), "shifted_units"),
            (dict(units=2, steps=10, drift_spread=1.0), "drift_spread"),
            (dict(units=2, steps=10, regime_spread=-1.0), "regime_spread"),
        ],
    )
    def test_argument_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            synth_fleet(**kwargs)
